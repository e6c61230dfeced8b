package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/neurosym/nsbench/internal/trace"
)

// runTraced is the per-layer run. After one set-up it splits the timed
// phase into an untraced half, which gives the throughput baseline and
// the runtime counters, and a traced half, which keeps a client span per
// request and fetches the replica spans of sampled requests. Then the
// layer probes run, and all spans are written as one Chrome trace.
func runTraced(wl *workload, seed int64, seconds time.Duration, outDir string) (*result, error) {
	dep, setupPh, _, err := setUp(wl, seed, 1)
	if err != nil {
		return nil, err
	}
	half := seconds / 2
	lp := timedLoop(wl, dep, seed, half)
	side := newClient(wl.conns)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := lp.run("untraced", time.Now().Add(half), 0)
	runtime.ReadMemStats(&m1)
	before, err := dep.stats(side)
	if err != nil {
		dep.close()
		return nil, err
	}
	lp.trace = &tracing{every: wl.traceEvery, client: side, nodes: nodesOf(wl, dep), events: wl.traceEvents}
	traced := lp.run("traced", time.Now().Add(half), 0)
	after, err := dep.stats(side)
	lp.client.CloseIdleConnections()
	side.CloseIdleConnections()
	if cerr := dep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	bad, err := verify(wl, setupPh, plain, traced)
	if err != nil {
		return nil, err
	}

	ly := &layers{metrics: map[string]metric{}}
	delta := after.sub(before)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ly.set("serve.cache_hit_ratio", "ratio", ratio(float64(delta.CacheHits), float64(delta.CacheHits+delta.CacheMiss)))
	ly.set("serve.batch_occupancy", "req", ratio(delta.BatchItems, float64(delta.Batches)))
	waits := spanTotals(traced.remotes)
	ly.set("serve.queue_wait_ms", "ms", waits["queue.wait"].mean())
	ly.set("serve.batch_window_ms", "ms", waits["batch.window"].mean())
	n := float64(plain.sent)
	ly.set("runtime.alloc_kb_per_req", "KB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	ly.set("runtime.gc_per_1k_req", "count", float64(m1.NumGC-m0.NumGC)*1000/n)
	plainRPS := float64(plain.ok()) / plain.elapsed.Seconds()
	tracedRPS := float64(traced.ok()) / traced.elapsed.Seconds()
	ly.set("trace_overhead_pct", "%", 100*(plainRPS-tracedRPS)/plainRPS)
	ly.note("workload %s: seed %d; untraced half %.4g req/s, traced half %.4g req/s; queue.wait from %d and batch.window from %d replica spans of %d sampled requests",
		wl.name, seed, plainRPS, tracedRPS, waits["queue.wait"].n, waits["batch.window"].n, len(traced.remotes))

	traces, err := ly.stages()
	if err == nil {
		err = ly.sweeps(traces)
	}
	if err == nil {
		err = ly.hitAndExplore()
	}
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	path := filepath.Join(outDir, fmt.Sprintf("perfbench-trace-%s-%d.json", wl.name, seed))
	st, err := writeChrome(path, append(traced.spans, ly.spans...), append(traced.remotes, ly.remote...))
	if err != nil {
		return nil, err
	}
	fmt.Println(setupPh.describe())
	fmt.Println(plain.describe())
	fmt.Println(traced.describe())
	for _, line := range ly.notes {
		fmt.Println(line)
	}
	fmt.Printf("chrome trace: %s (%d complete events, %d tracks), passes trace.ValidateChrome\n", path, st.Events, st.Tracks)
	for _, e := range append(append(setupPh.errs, plain.errs...), traced.errs...) {
		fmt.Println("error:", e)
	}
	failed := setupPh.failed + plain.failed + traced.failed
	return &result{
		Correct:   failed == 0 && bad == 0,
		Attempted: setupPh.sent + plain.sent + traced.sent,
		Failed:    failed,
		Metrics:   ly.metrics,
	}, nil
}

// nodesOf says which replicas served a response: the one the router
// names for a routed characterization, every replica for a routed sweep
// (its shards spread over them), the only one when unrouted.
func nodesOf(wl *workload, dep *deployment) func(*http.Response) []string {
	return func(resp *http.Response) []string {
		if !wl.routed {
			return []string{dep.replicas[0].l.url}
		}
		if node := resp.Header.Get("X-NSRouter-Node"); node != "" && wl.path == "/v1/characterize" {
			return []string{node}
		}
		var all []string
		for _, r := range dep.replicas {
			all = append(all, r.l.url)
		}
		return all
	}
}

// fetchSlice pulls the slice of request id that node's flight recorder
// holds, keeping its operator events only when events is set.
func fetchSlice(c *http.Client, node, id string, events bool) (trace.RequestTrace, error) {
	var rt trace.RequestTrace
	if err := getJSON(c, node+"/v1/trace?request_id="+url.QueryEscape(id), &rt); err != nil {
		return rt, err
	}
	if !events {
		rt.Events = nil
	}
	return rt, nil
}

// spanTotal accumulates the durations of one span name.
type spanTotal struct {
	n     int
	total float64 // ms
}

func (s spanTotal) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n)
}

// spanTotals sums replica span durations by span name.
func spanTotals(rts []trace.RequestTrace) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, rt := range rts {
		for _, s := range rt.Spans {
			t := out[s.Name]
			t.n++
			t.total += float64(s.DurNs) / 1e6
			out[s.Name] = t
		}
	}
	return out
}

// writeChrome writes the benchmark's spans (process "perfbench") and the
// fetched replica slices (one process per replica) as one Chrome trace,
// refusing to write one that fails trace.ValidateChrome. Replica slices
// of different requests share worker lanes, so their engine stage and
// fork ranges, which may overlap across requests, are kept as complete
// events; kernel chunk spans are dropped for size.
func writeChrome(path string, local []trace.WireSpan, remotes []trace.RequestTrace) (trace.ChromeStats, error) {
	procs := []trace.RequestTrace{{RequestID: "perfbench", Node: "perfbench", Spans: local}}
	index := map[string]int{}
	for _, rt := range remotes {
		i, ok := index[rt.Node]
		if !ok {
			i = len(procs)
			index[rt.Node] = i
			procs = append(procs, trace.RequestTrace{RequestID: "perfbench", Node: rt.Node})
		}
		for _, s := range rt.Spans {
			switch s.Kind {
			case trace.SpanChunk:
				continue
			case trace.SpanStage, trace.SpanFork:
				s.Kind = "engine." + s.Kind
			}
			procs[i].Spans = append(procs[i].Spans, s)
		}
		procs[i].Events = append(procs[i].Events, rt.Events...)
	}
	var buf bytes.Buffer
	if err := trace.WriteStitchedChrome(&buf, procs); err != nil {
		return trace.ChromeStats{}, err
	}
	st, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		return st, fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return st, err
	}
	return st, os.WriteFile(path, buf.Bytes(), 0o644)
}
