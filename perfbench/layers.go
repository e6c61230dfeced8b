package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
	"github.com/neurosym/nsbench/internal/trace"
)

// layers times each layer's public entry points from outside the
// program and keeps a span around every call it makes. The probes are
// the same whatever workload the traced run drives, so every per-layer
// metric is reported on every workload.
type layers struct {
	metrics map[string]metric
	notes   []string
	spans   []trace.WireSpan     // benchmark-side spans, process "perfbench"
	remote  []trace.RequestTrace // replica slices fetched by request ID
}

// stagePasses is how many in-process passes over the registered
// workloads the stage timings take their median over.
const stagePasses = 3

func (ly *layers) set(name, unit string, v float64) { ly.metrics[name] = metric{v, unit} }

func (ly *layers) note(format string, args ...any) {
	ly.notes = append(ly.notes, fmt.Sprintf(format, args...))
}

// timed runs f inside a span named name and returns its duration in ms.
func (ly *layers) timed(name string, f func()) float64 {
	start := time.Now()
	f()
	d := time.Since(start)
	ly.spans = append(ly.spans, trace.WireSpan{
		Name: name, Kind: "layer", StartUnixNs: start.UnixNano(), DurNs: d.Nanoseconds(),
	})
	return ms(d)
}

// categoryMetric names the ops.run.* metric of each operator category.
var categoryMetric = map[trace.Category]string{
	trace.Convolution:   "ops.run.conv_ms",
	trace.MatMul:        "ops.run.matmul_ms",
	trace.VectorEltwise: "ops.run.eltwise_ms",
	trace.DataTransform: "ops.run.transform_ms",
	trace.DataMovement:  "ops.run.movement_ms",
	trace.Other:         "ops.run.other_ms",
}

// kernelStats makes the hwsim.Device.KernelStats calls core.Analyze makes
// for its roofline placement: one per phase and kernel class present.
func kernelStats(tr *trace.Trace, dev hwsim.Device) {
	label := map[hwsim.KernelClass]string{hwsim.ClassGEMM: "sgemm_nn", hwsim.ClassEltwise: "vectorized_elem"}
	for _, p := range trace.Phases() {
		for _, class := range []hwsim.KernelClass{hwsim.ClassGEMM, hwsim.ClassEltwise} {
			var evs []trace.Event
			for _, ev := range tr.Events {
				if ev.Phase == p && hwsim.ClassifyKernel(ev.Kernel) == class {
					evs = append(evs, ev)
				}
			}
			if len(evs) > 0 {
				dev.KernelStats(label[class], evs)
			}
		}
	}
}

// dataflow makes core.Analyze's trace.BuildGraph call and the graph
// queries its dataflow section runs.
func dataflow(tr *trace.Trace) {
	g := trace.BuildGraph(tr)
	path, _ := g.CriticalPath()
	g.PathPhaseShare(path)
	g.CrossPhaseEdges()
	g.Depth()
	g.MaxWidth()
	g.SequentialFraction()
}

// stages times one characterization of every registered workload at the
// base device stage by stage, in process, and right after it serves the
// same request from a cache-disabled replica; it does this stagePasses
// times after one untimed served pass, and reports each stage's per-pass
// total (median over passes) plus NVSA's own share. Serving each request
// next to its in-process twin keeps host drift out of their difference,
// serve.unattributed_ms: the served pass time the in-process stages do
// not account for. Analyze's parts — projection, kernel statistics, the
// dataflow graph — are timed again on their own after it. It returns
// each workload's trace for the sweep probe.
func (ly *layers) stages() (map[string]*trace.Trace, error) {
	pool := ops.Config{Backend: ops.BackendParallel}.NewPool()
	defer pool.Close()
	dep, err := deploy("probe-miss", 1, -1, false)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	node := dep.replicas[0].l.url
	served := func(pass int, name string) (float64, error) {
		id := fmt.Sprintf("probe-miss-%d-%s", pass, name)
		_, _, d, err := ly.call(c, node+"/v1/characterize", characterizeBody(key{name, hwsim.RTX2080Ti.Name}), id)
		if err == nil && pass >= 0 {
			err = ly.fetch(c, node, id, false)
		}
		return d, err
	}
	for _, name := range core.WorkloadNames() {
		if _, err := served(-1, name); err != nil {
			return nil, err
		}
	}
	names := []string{"core.build_ms", "ops.run_ms", "core.analyze_ms", "json.encode_ms",
		"hwsim.project_ms", "hwsim.kernelstats_ms", "trace.graph_ms", "serve.miss_pass_ms",
		"nvsa.core.build_ms", "nvsa.ops.run_ms", "nvsa.ops.run.matmul_ms", "nvsa.core.analyze_ms"}
	for _, m := range categoryMetric {
		names = append(names, m)
	}
	passes := map[string][]float64{}
	traces := map[string]*trace.Trace{}
	for pass := 0; pass < stagePasses; pass++ {
		sum := map[string]float64{}
		for _, name := range core.WorkloadNames() {
			var wl core.Workload
			var err error
			build := ly.timed("core.BuildWorkload "+name, func() { wl, err = core.BuildWorkload(name) })
			if err != nil {
				return nil, err
			}
			e := pool.Engine()
			run := ly.timed("Workload.Run "+name, func() { err = wl.Run(e) })
			core.CloseWorkload(wl)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			tr := e.Trace()
			var rep *core.Report
			analyze := ly.timed("core.Analyze "+name, func() {
				rep = core.Analyze(wl.Name(), wl.Category(), tr, core.Options{Device: hwsim.RTX2080Ti})
			})
			encode := ly.timed("json.Marshal "+name, func() { _, err = json.Marshal(rep) })
			if err != nil {
				return nil, err
			}
			sum["hwsim.project_ms"] += ly.timed("hwsim.ProjectTrace "+name, func() {
				for _, d := range hwsim.EdgeDevices() {
					d.ProjectTrace(tr)
				}
			})
			sum["hwsim.kernelstats_ms"] += ly.timed("hwsim.KernelStats "+name, func() { kernelStats(tr, hwsim.RTX2080Ti) })
			sum["trace.graph_ms"] += ly.timed("trace.BuildGraph "+name, func() { dataflow(tr) })
			sum["core.build_ms"] += build
			sum["ops.run_ms"] += run
			sum["core.analyze_ms"] += analyze
			sum["json.encode_ms"] += encode
			for _, ev := range tr.Events {
				sum[categoryMetric[ev.Category]] += ms(ev.Dur)
				if name == "NVSA" && ev.Category == trace.MatMul {
					sum["nvsa.ops.run.matmul_ms"] += ms(ev.Dur)
				}
			}
			d, err := served(pass, name)
			if err != nil {
				return nil, err
			}
			sum["serve.miss_pass_ms"] += d
			if name == "NVSA" {
				sum["nvsa.core.build_ms"] = build
				sum["nvsa.ops.run_ms"] = run
				sum["nvsa.core.analyze_ms"] = analyze
			}
			traces[name] = tr
		}
		for _, m := range names {
			passes[m] = append(passes[m], sum[m])
		}
	}
	for _, m := range names {
		ly.set(m, "ms", median(passes[m]))
	}
	stages := ly.metrics["core.build_ms"].Value + ly.metrics["ops.run_ms"].Value +
		ly.metrics["core.analyze_ms"].Value + ly.metrics["json.encode_ms"].Value
	pass := ly.metrics["serve.miss_pass_ms"].Value
	ly.set("serve.unattributed_ms", "ms", pass-stages)
	ly.note("stages: %d passes over %d workloads at the base device, median per-pass totals; ops.run.* sum event durations, which overlap on forked engines",
		stagePasses, len(traces))
	ly.note("miss pass: %d sequential misses served in %.4g ms = core.build + ops.run + core.analyze + json.encode (%.4g ms) + serve.unattributed (%.4g ms)",
		len(traces), pass, stages, pass-stages)
	return traces, nil
}

// sweeps times dse.Resolve of the explore grid and a whole-grid
// dse.NewEngine + Sweep (no-op emit) over every workload's trace.
func (ly *layers) sweeps(traces map[string]*trace.Trace) error {
	const resolveCalls = 2000
	var grid *dse.Grid
	var err error
	var per []float64
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < resolveCalls && err == nil; i++ {
			grid, err = dse.Resolve(hwsim.RTX2080Ti, exploreSpace)
		}
		per = append(per, ms(time.Since(start))*1000/resolveCalls)
	}
	if err != nil {
		return err
	}
	ly.set("dse.resolve_us", "us", median(per))
	var sweeps []float64
	for rep := 0; rep < 3; rep++ {
		for _, name := range core.WorkloadNames() {
			sweeps = append(sweeps, ly.timed("dse.Sweep "+name, func() {
				_, err = dse.NewEngine(grid, traces[name]).Sweep(context.Background(), 0, 1,
					func(dse.PointResult) error { return nil })
			}))
			if err != nil {
				return err
			}
		}
	}
	m := median(sweeps)
	ly.set("dse.sweep_ms", "ms", m)
	ly.set("dse.points_per_s", "1/s", float64(grid.Size())/(m/1000))
	ly.note("dse: resolve is the mean of %d calls (median of 5 batches); sweep is the median of %d whole-grid sweeps",
		resolveCalls, len(sweeps))
	return nil
}

// call posts body to url under request id, keeps a client span for it,
// and returns the response, its body and its latency in ms.
func (ly *layers) call(c *http.Client, url string, body []byte, id string) (*http.Response, []byte, float64, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	var resp *http.Response
	var buf bytes.Buffer
	d := ly.timed("client "+id, func() {
		if resp, err = c.Do(req); err == nil {
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	})
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, buf.Bytes())
	}
	return resp, buf.Bytes(), d, err
}

// fetch pulls the slice of request id that node's flight recorder holds.
func (ly *layers) fetch(c *http.Client, node, id string, events bool) error {
	rt, err := fetchSlice(c, node, id, events)
	if err == nil {
		ly.remote = append(ly.remote, rt)
	}
	return err
}

// hitAndExplore deploys two replicas behind a router, fills the cache
// with every workload at the base device, and times cache hits and
// whole-grid sweeps routed and direct on one replica.
func (ly *layers) hitAndExplore() error {
	const hitCalls = 2000
	const sweepReps = 5
	dep, err := deploy("probe-hit", 2, 0, true)
	if err != nil {
		return err
	}
	defer dep.close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	keys := baseKeys()
	owner := map[key]string{}
	for _, k := range keys {
		resp, _, _, err := ly.call(c, dep.front+"/v1/characterize", characterizeBody(k), "probe-fill-"+k.Workload)
		if err != nil {
			return err
		}
		owner[k] = resp.Header.Get("X-NSRouter-Node")
	}
	hits := func(target func(key) string, prefix string) ([]float64, error) {
		var lat []float64
		for i := 0; i < hitCalls; i++ {
			k := keys[i%len(keys)]
			id := fmt.Sprintf("%s-%d", prefix, i)
			resp, _, d, err := ly.call(c, target(k), characterizeBody(k), id)
			if err != nil {
				return nil, err
			}
			if resp.Header.Get("X-NSServe-Cache") != "hit" {
				return nil, fmt.Errorf("%s: %s was not a cache hit", prefix, k)
			}
			lat = append(lat, d)
			if i < len(keys) {
				if err := ly.fetch(c, owner[k], id, false); err != nil {
					return nil, err
				}
			}
		}
		return lat, nil
	}
	routed, err := hits(func(key) string { return dep.front + "/v1/characterize" }, "probe-hit-routed")
	if err != nil {
		return err
	}
	direct, err := hits(func(k key) string { return owner[k] + "/v1/characterize" }, "probe-hit-direct")
	if err != nil {
		return err
	}
	ly.set("serve.hit_ms", "ms", median(direct))
	ly.set("cluster.route_hop_ms", "ms", median(routed)-median(direct))

	const canonCalls = 20000
	all := allKeys()
	var per []float64
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < canonCalls; i++ {
			k := all[i%len(all)]
			if _, _, err := serve.Canonicalize(serve.Request{Workload: k.Workload, Device: k.Device}); err != nil {
				return err
			}
		}
		per = append(per, ms(time.Since(start))*1000/canonCalls)
	}
	ly.set("serve.canonicalize_us", "us", median(per))

	sweeps := func(url, prefix string, fetch []string) ([]float64, error) {
		var lat []float64
		for rep := -1; rep < sweepReps; rep++ {
			for _, k := range keys {
				id := fmt.Sprintf("%s-%d-%s", prefix, rep, k.Workload)
				_, body, d, err := ly.call(c, url, exploreBody(k), id)
				if err == nil {
					_, err = digestStream(body, exploreGrid)
				}
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", prefix, k, err)
				}
				if rep < 0 {
					continue // the first sweep of a key traces its workload
				}
				lat = append(lat, d)
				if rep == 0 {
					for _, node := range fetch {
						if err := ly.fetch(c, node, id, true); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		return lat, nil
	}
	nodes := []string{dep.replicas[0].l.url, dep.replicas[1].l.url}
	routedSweeps, err := sweeps(dep.front+"/v1/explore", "probe-explore-routed", nodes)
	if err != nil {
		return err
	}
	directSweeps, err := sweeps(nodes[0]+"/v1/explore", "probe-explore-direct", nodes[:1])
	if err != nil {
		return err
	}
	direct50 := median(directSweeps)
	ly.set("serve.explore_ms", "ms", direct50)
	ly.set("serve.explore_stream_ms", "ms", direct50-ly.metrics["dse.sweep_ms"].Value)
	ly.set("cluster.explore_speedup", "x", direct50/median(routedSweeps))
	ly.note("hit: p50 of %d routed and %d direct hits over %d keys; explore: p50 of %d routed and %d direct whole-grid sweeps after one untimed sweep per key",
		len(routed), len(direct), len(keys), len(routedSweeps), len(directSweeps))
	return nil
}
