package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// detReport is the part of a /v1/characterize report that is a pure
// function of the request — names, memory accounting, roofline intensity
// and dataflow structure, the subset the cluster tests compare across
// processes. Every other field carries measured wall time.
type detReport struct {
	Name     string          `json:"name"`
	Category string          `json:"category"`
	Memory   json.RawMessage `json:"memory"`
	Roofline []struct {
		Name string  `json:"name"`
		AI   float64 `json:"arithmetic_intensity"`
	} `json:"roofline"`
	Dataflow struct {
		Events           int `json:"events"`
		Edges            int `json:"edges"`
		Depth            int `json:"depth"`
		MaxWidth         int `json:"max_width"`
		NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
		SymbolicToNeural int `json:"symbolic_to_neural_edges"`
	} `json:"dataflow"`
}

// deterministicFields extracts a report body's deterministic subset in a
// canonical rendering, so two reports agree on it exactly when the
// renderings are equal.
func deterministicFields(body []byte) (string, error) {
	var d detReport
	if err := json.Unmarshal(body, &d); err != nil {
		return "", fmt.Errorf("report does not parse: %w", err)
	}
	if d.Name == "" || len(d.Memory) == 0 {
		return "", errors.New("report lacks name or memory section")
	}
	b, err := json.Marshal(d)
	return string(b), err
}

// compareReports returns nil when two canonical renderings agree and an
// error showing both otherwise.
func compareReports(got, want string) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("deterministic fields differ:\n got %s\nwant %s", got, want)
}

// characterizeRefs computes the reference deterministic fields of every
// key in process. Each workload is characterized once through
// core.Characterize on its first device; its other devices re-analyse the
// same trace, which is what Characterize would do after an identical run.
func characterizeRefs(keys []key) (map[key]string, error) {
	pool := ops.Config{Backend: ops.BackendParallel}.NewPool()
	defer pool.Close()
	refs := make(map[key]string, len(keys))
	traces := map[string]*core.Report{}
	for _, k := range keys {
		dev, err := hwsim.DeviceByName(k.Device)
		if err != nil {
			return nil, err
		}
		var r *core.Report
		if first, ok := traces[k.Workload]; ok {
			r = core.Analyze(first.Name, first.Category, first.Trace, core.Options{Device: dev})
		} else {
			wl, err := core.BuildWorkload(k.Workload)
			if err != nil {
				return nil, err
			}
			r, err = core.Characterize(wl, core.Options{Device: dev, Pool: pool})
			core.CloseWorkload(wl)
			if err != nil {
				return nil, err
			}
			traces[k.Workload] = r
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		if refs[k], err = deterministicFields(b); err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
	}
	return refs, nil
}

// sweepDigest is what the correctness check keeps of one explore stream:
// the point lines as a count and an order-independent hash sum (shards
// interleave, so arrival order is not deterministic), and the merged
// Pareto front in canonical form.
type sweepDigest struct {
	Points int    `json:"points"`
	Sum    uint64 `json:"sum"`
	Front  string `json:"front"`
}

// digestSeed keys the point-line hashes; one per process, shared by the
// streams and the references they are compared with.
var digestSeed = maphash.MakeSeed()

var pointPrefix = []byte(`{"type":"point"`)

// digestStream reduces one /v1/explore NDJSON body to its digest,
// checking that it opens with a meta chunk for gridSize points and
// closes with a summary that evaluated all of them without failures.
func digestStream(body []byte, gridSize int) (sweepDigest, error) {
	var d sweepDigest
	var sawMeta, sawSummary bool
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, pointPrefix) {
			d.Points++
			d.Sum += maphash.Bytes(digestSeed, line)
			continue
		}
		var c dse.Chunk
		if err := json.Unmarshal(line, &c); err != nil {
			return d, fmt.Errorf("bad chunk: %w", err)
		}
		switch {
		case c.Type == "meta" && c.Meta != nil:
			if c.Meta.GridSize != gridSize {
				return d, fmt.Errorf("meta grid size %d, want %d", c.Meta.GridSize, gridSize)
			}
			sawMeta = true
		case c.Type == "summary" && c.Summary != nil:
			s := c.Summary
			if len(s.Errors) > 0 || s.Failed > 0 || s.Evaluated != gridSize {
				return d, fmt.Errorf("summary: evaluated %d of %d, failed %d, errors %v",
					s.Evaluated, gridSize, s.Failed, s.Errors)
			}
			front, err := json.Marshal(s.Front)
			if err != nil {
				return d, err
			}
			d.Front = string(front)
			sawSummary = true
		default:
			return d, fmt.Errorf("unexpected chunk %.80q", line)
		}
	}
	if !sawMeta || !sawSummary {
		return d, fmt.Errorf("stream lacks meta (%v) or summary (%v)", sawMeta, sawSummary)
	}
	return d, nil
}

// sweepRef computes the digest an explore stream over tr must have: an
// in-process sweep of the whole grid with each point rendered as the
// replica renders its point lines.
func sweepRef(tr *trace.Trace, space dse.Space) (sweepDigest, error) {
	grid, err := dse.Resolve(hwsim.RTX2080Ti, space)
	if err != nil {
		return sweepDigest{}, err
	}
	var d sweepDigest
	sum, err := dse.NewEngine(grid, tr).Sweep(context.Background(), 0, 1, func(p dse.PointResult) error {
		line, err := json.Marshal(dse.Chunk{Type: "point", Point: &p})
		d.Points++
		d.Sum += maphash.Bytes(digestSeed, line)
		return err
	})
	if err != nil {
		return d, err
	}
	front, err := json.Marshal(sum.Front)
	d.Front = string(front)
	return d, err
}

// exploreRefs computes the reference digest of every explore key from a
// fresh in-process trace of its workload.
func exploreRefs(keys []key, space dse.Space) (map[key]string, error) {
	pool := ops.Config{Backend: ops.BackendParallel}.NewPool()
	defer pool.Close()
	refs := make(map[key]string, len(keys))
	for _, k := range keys {
		wl, err := core.BuildWorkload(k.Workload)
		if err != nil {
			return nil, err
		}
		e := pool.Engine()
		err = wl.Run(e)
		core.CloseWorkload(wl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		d, err := sweepRef(e.Trace(), space)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		b, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		refs[k] = string(b)
	}
	return refs, nil
}
