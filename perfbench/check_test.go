package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/trace"
)

const sampleReport = `{"name":"NVSA","category":"Neuro|Symbolic","total_ns":1234,"neural_ns":200,` +
	`"memory":{"NeuralAlloc":4096,"SymbolicAlloc":512,"ParamsByKind":{"codebook":64},"TotalParams":64},` +
	`"roofline":[{"name":"NVSA/Neural/GEMM","arithmetic_intensity":12.5,"perf_gflops":31.2,"bound":"compute"}],` +
	`"dataflow":{"events":10,"edges":12,"depth":4,"max_width":3,"critical_path_ns":777,` +
	`"neural_to_symbolic_edges":1,"symbolic_to_neural_edges":0}}`

func mustFields(t *testing.T, body string) string {
	t.Helper()
	det, err := deterministicFields([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestCompareReportsIgnoresTimings(t *testing.T) {
	want := mustFields(t, sampleReport)
	retimed := strings.NewReplacer(`"total_ns":1234`, `"total_ns":99`, `"perf_gflops":31.2`, `"perf_gflops":7`,
		`"critical_path_ns":777`, `"critical_path_ns":1`).Replace(sampleReport)
	if retimed == sampleReport {
		t.Fatal("the timing edit did not apply")
	}
	if err := compareReports(mustFields(t, retimed), want); err != nil {
		t.Fatalf("reports differing only in timings compared unequal: %v", err)
	}
}

func TestCompareReportsFailsOnMutatedField(t *testing.T) {
	want := mustFields(t, sampleReport)
	for _, edit := range [][2]string{
		{`"name":"NVSA"`, `"name":"LNN"`},
		{`"category":"Neuro|Symbolic"`, `"category":"Neuro:Symbolic"`},
		{`"NeuralAlloc":4096`, `"NeuralAlloc":4097`},
		{`"codebook":64`, `"codebook":65`},
		{`"arithmetic_intensity":12.5`, `"arithmetic_intensity":12.6`},
		{`"NVSA/Neural/GEMM"`, `"NVSA/Symbolic/GEMM"`},
		{`"edges":12`, `"edges":13`},
		{`"depth":4`, `"depth":5`},
		{`"neural_to_symbolic_edges":1`, `"neural_to_symbolic_edges":2`},
	} {
		mutated := strings.Replace(sampleReport, edit[0], edit[1], 1)
		if mutated == sampleReport {
			t.Fatalf("edit %q did not apply", edit[0])
		}
		if err := compareReports(mustFields(t, mutated), want); err == nil {
			t.Errorf("mutating %s to %s went unnoticed", edit[0], edit[1])
		}
	}
	if _, err := deterministicFields([]byte(`{"category":"x"}`)); err == nil {
		t.Error("a report without name or memory was accepted")
	}
}

func TestDeterministicFieldsOfRealRuns(t *testing.T) {
	var bodies []string
	for i := 0; i < 2; i++ {
		wl, err := core.BuildWorkload("GNN+attention")
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Characterize(wl, core.Options{})
		core.CloseWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, mustFields(t, string(b)))
	}
	if err := compareReports(bodies[0], bodies[1]); err != nil {
		t.Fatalf("two runs of one workload disagree: %v", err)
	}
}

// smallTrace is a synthetic trace with neural GEMM and symbolic gather
// work, enough to give the sweep a non-trivial front.
func smallTrace() *trace.Trace {
	tr := &trace.Trace{}
	add := func(kernel string, phase trace.Phase, flops, bytes int64, n int) {
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, trace.Event{Seq: len(tr.Events), Name: kernel, Kernel: kernel,
				Phase: phase, FLOPs: flops, Bytes: bytes})
		}
	}
	add("sgemm_nn", trace.Neural, 1<<27, 1<<22, 4)
	add("gather", trace.Symbolic, 0, 1<<22, 6)
	add("vectorized_elem", trace.Symbolic, 1<<24, 1<<23, 3)
	return tr
}

// shardedStream renders the sweep of tr as the router streams it: a meta
// line, both shards' point lines interleaved last shard first, and a
// summary carrying the merged front.
func shardedStream(t *testing.T, tr *trace.Trace, mutate func(*dse.PointResult)) []byte {
	t.Helper()
	grid, err := dse.Resolve(hwsim.RTX2080Ti, exploreSpace)
	if err != nil {
		t.Fatal(err)
	}
	eng := dse.NewEngine(grid, tr)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(dse.Chunk{Type: "meta", Meta: &dse.ChunkMeta{GridSize: grid.Size(), ShardCount: 1, Shards: 2}})
	var fronts [][]dse.PointResult
	for shard := 1; shard >= 0; shard-- {
		sum, err := eng.Sweep(context.Background(), shard, 2, func(p dse.PointResult) error {
			if mutate != nil {
				mutate(&p)
			}
			return enc.Encode(dse.Chunk{Type: "point", Point: &p})
		})
		if err != nil {
			t.Fatal(err)
		}
		fronts = append(fronts, sum.Front)
	}
	front := dse.MergeFronts(fronts...)
	enc.Encode(dse.Chunk{Type: "summary", Summary: &dse.Summary{GridSize: grid.Size(), Evaluated: grid.Size(),
		ElapsedNs: 12345, Front: front, FrontSize: len(front)}})
	return buf.Bytes()
}

func TestDigestStreamMatchesReference(t *testing.T) {
	tr := smallTrace()
	want, err := sweepRef(tr, exploreSpace)
	if err != nil {
		t.Fatal(err)
	}
	if want.Points != exploreGrid || want.Front == "null" {
		t.Fatalf("reference sweep has %d points and front %s", want.Points, want.Front)
	}
	got, err := digestStream(shardedStream(t, tr, nil), exploreGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("interleaved shard stream digests to %+v, want %+v", got, want)
	}
	bumped, err := digestStream(shardedStream(t, tr, func(p *dse.PointResult) {
		if p.Index == 77 {
			p.LatencyNs++
		}
	}), exploreGrid)
	if err != nil {
		t.Fatal(err)
	}
	if bumped.Sum == want.Sum {
		t.Fatal("a mutated point line left the digest unchanged")
	}
	if _, err := digestStream(shardedStream(t, tr, nil), 128); err == nil {
		t.Fatal("a stream for the wrong grid size was accepted")
	}
	body := shardedStream(t, tr, nil)
	cut := bytes.LastIndex(body[:len(body)-1], []byte("\n"))
	if _, err := digestStream(body[:cut+1], exploreGrid); err == nil {
		t.Fatal("a stream without its summary was accepted")
	}
}
