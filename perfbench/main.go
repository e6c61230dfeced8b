// Command perfbench is the repository's end-to-end benchmark. It starts
// real nsserve replicas and an nsrouter in this process on loopback HTTP,
// drives one named workload from closed-loop client connections, checks
// every response against an in-process reference, and prints the
// workload's end-to-end metrics. With -trace 1 it instead reports the
// per-layer metrics: it splits the timed phase into an untraced and a
// traced half, times each layer's public entry points from outside, and
// writes the spans as a Chrome trace.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload miss --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it give the sample
// count and percentile behind every timing and the request accounting of
// every phase. A run that cannot measure (a server fails to start, a
// sample too small for its tail percentile) exits non-zero without a
// result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/neurosym/nsbench/internal/dse"
	"github.com/neurosym/nsbench/internal/serve"
)

// setups is how many times a run sets the deployment up; setup_s is
// their median and the last one serves the timed phase.
const setups = 3

// exploreSpace is the explore workload's sweep: 8 compute ceilings × 8
// DRAM bandwidths × 2 L2 sizes × 2 L1 associativities = 256 points around
// the base device.
var exploreSpace = dse.Space{
	PeakGFLOPs: dse.Axis{Min: 1000, Max: 16000, Steps: 8, Log: true},
	MemBWGBs:   dse.Axis{Min: 60, Max: 1200, Steps: 8, Log: true},
	L2KB:       dse.Axis{Values: []float64{2048, 8192}},
	Ways:       dse.Axis{Values: []float64{4, 8}},
}

const exploreGrid = 256

// workload is one named traffic mix: its key set, the deployment it
// runs against, its connections and set-up, and how its responses are
// reduced and checked.
type workload struct {
	name      string
	keys      []key
	replicas  int
	cacheSize int // replica cache capacity; negative disables the cache
	routed    bool
	conns     int
	tailBP    int // the fixed tail percentile of lat_tail_ms
	path      string
	laneRate  int // requests per second one lane's latency buffer is sized for
	warm      []key
	warmConns int
	body      func(k key) []byte
	// observe reduces a 200 body to what the correctness check keeps.
	observe func(body []byte) ([]byte, error)
	refs    func(keys []key) (map[key]string, error)
	check   func(ob, ref string) error
	// traceEvery samples the requests whose replica spans a traced
	// phase fetches; traceEvents keeps replica operator events as well.
	traceEvery  int
	traceEvents bool
}

func characterizeBody(k key) []byte {
	b, _ := json.Marshal(serve.Request{Workload: k.Workload, Device: k.Device})
	return b
}

func exploreBody(k key) []byte {
	b, _ := json.Marshal(serve.ExploreRequest{Workload: k.Workload, Device: k.Device, Space: exploreSpace})
	return b
}

// memoBodies precomputes every key's request body so the load loop
// does no encoding of its own.
func memoBodies(keys []key, f func(key) []byte) func(key) []byte {
	m := make(map[key][]byte, len(keys))
	for _, k := range keys {
		m[k] = f(k)
	}
	return func(k key) []byte { return m[k] }
}

func workloads() map[string]*workload {
	all, base := allKeys(), baseKeys()
	checkReport := func(ob, ref string) error {
		det, err := deterministicFields([]byte(ob))
		if err != nil {
			return err
		}
		return compareReports(det, ref)
	}
	return map[string]*workload{
		"hit": {
			name: "hit", keys: all, replicas: 2, routed: true, conns: 1, tailBP: 9000,
			path: "/v1/characterize", laneRate: 20000,
			warm: all, warmConns: 2,
			body:    memoBodies(all, characterizeBody),
			observe: func(b []byte) ([]byte, error) { return b, nil },
			refs:    characterizeRefs, check: checkReport,
			traceEvery: 64,
		},
		"miss": {
			name: "miss", keys: all, replicas: 1, cacheSize: -1, conns: 2, tailBP: 9500,
			path: "/v1/characterize", laneRate: 50,
			warm: base, warmConns: 1,
			body: memoBodies(all, characterizeBody),
			observe: func(b []byte) ([]byte, error) {
				det, err := deterministicFields(b)
				return []byte(det), err
			},
			refs: characterizeRefs, check: compareReports,
			traceEvery: 1,
		},
		"explore": {
			name: "explore", keys: base, replicas: 2, routed: true, conns: 1, tailBP: 9500,
			path: "/v1/explore", laneRate: 500,
			warm: base, warmConns: 1,
			body: memoBodies(base, exploreBody),
			observe: func(b []byte) ([]byte, error) {
				d, err := digestStream(b, exploreGrid)
				if err != nil {
					return nil, err
				}
				return json.Marshal(d)
			},
			refs: func(keys []key) (map[key]string, error) { return exploreRefs(keys, exploreSpace) },
			check: func(ob, ref string) error {
				if ob != ref {
					return fmt.Errorf("sweep differs from the in-process reference:\n got %.300s\nwant %.300s", ob, ref)
				}
				return nil
			},
			traceEvery: 1, traceEvents: true,
		},
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: hit, miss or explore")
	seed := flag.Int64("seed", 1, "seed of the key walk")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its Chrome trace into")
	flag.Parse()
	wl, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload hit|miss|explore, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(wl, *seed, time.Duration(*seconds)*time.Second, *out)
	} else {
		res, err = runTimed(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp deploys the workload's serving tier and sends its warm-up
// requests, setups times over, tearing down all but the last deployment.
// It returns that deployment, the set-up phase, and each set-up's
// duration in seconds.
func setUp(wl *workload, seed int64, times int) (*deployment, *phase, []float64, error) {
	ph := newPhase("setup")
	var durs []float64
	var dep *deployment
	for i := 0; i < times; i++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if dep, err = deploy(wl.name, wl.replicas, wl.cacheSize, wl.routed); err != nil {
			return nil, nil, nil, err
		}
		client := newClient(wl.warmConns)
		warm := (&loop{
			client: client, url: dep.front + wl.path, body: wl.body, observe: wl.observe,
			walk: newWalk(wl.warm, seed), conns: wl.warmConns, latCap: len(wl.warm),
		}).run("setup", time.Time{}, len(wl.warm))
		durs = append(durs, time.Since(start).Seconds())
		client.CloseIdleConnections()
		ph.merge(warm)
		if warm.failed > 0 {
			dep.close()
			return nil, nil, nil, fmt.Errorf("set-up failed: %v", warm.errs)
		}
	}
	return dep, ph, durs, nil
}

// timedLoop is the workload's measured load against dep.
func timedLoop(wl *workload, dep *deployment, seed int64, seconds time.Duration) *loop {
	return &loop{
		client: newClient(wl.conns), url: dep.front + wl.path, body: wl.body, observe: wl.observe,
		walk: newWalk(wl.keys, seed), conns: wl.conns,
		latCap: wl.laneRate * int(seconds/time.Second+1),
	}
}

// verify checks every phase's observations against the in-process
// references and returns how many responses disagreed.
func verify(wl *workload, phases ...*phase) (int, error) {
	refs, err := wl.refs(wl.keys)
	if err != nil {
		return 0, fmt.Errorf("computing references: %w", err)
	}
	bad := 0
	for _, ph := range phases {
		for k, m := range ph.obs {
			ref, ok := refs[k]
			if !ok {
				return 0, fmt.Errorf("no reference for %s", k)
			}
			for ob, n := range m {
				if err := wl.check(ob, ref); err != nil {
					bad += *n
					ph.failN(*n, "%s: %v", k, err)
				}
			}
		}
	}
	return bad, nil
}

func runTimed(wl *workload, seed int64, seconds time.Duration) (*result, error) {
	dep, setupPh, setupDurs, err := setUp(wl, seed, setups)
	if err != nil {
		return nil, err
	}
	lp := timedLoop(wl, dep, seed, seconds)
	statsClient := newClient(1)
	before, err := dep.stats(statsClient)
	if err != nil {
		dep.close()
		return nil, err
	}
	timed := lp.run("timed", time.Now().Add(seconds), 0)
	heapMB, bufMB := retainedHeapMB(), timed.bufferMB()
	after, err := dep.stats(statsClient)
	lp.client.CloseIdleConnections()
	statsClient.CloseIdleConnections()
	if cerr := dep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	bad, err := verify(wl, setupPh, timed)
	if err != nil {
		return nil, err
	}
	lat, err := summarize(timed.lat, wl.tailBP)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	delta := after.sub(before)
	fmt.Printf("workload %s: seed %d, %d keys, closed loop over %d connection(s), %s\n",
		wl.name, seed, len(wl.keys), wl.conns, dep.front+wl.path)
	fmt.Printf("setup_s: median of %d set-ups %v\n", len(setupDurs), setupDurs)
	fmt.Println(setupPh.describe())
	fmt.Println(timed.describe())
	fmt.Printf("latency: %d samples, p50 %.4f ms, lat_tail_ms is %s %.4f ms (%d beyond)\n",
		lat.N, lat.P50, pctName(lat.TailBP), lat.Tail, beyond(lat.N, lat.TailBP))
	fmt.Println(timed.tails())
	fmt.Println(timed.byWorkload())
	fmt.Printf("heap: %.4f MB retained, less %.4f MB of latency buffers\n", heapMB, bufMB)
	fmt.Printf("replicas over the timed phase: %d characterize requests, %d cache hits, %d misses, %d runs, %d sweeps, %d rejected (429), %d timeouts (499/504), %d failures\n",
		delta.Requests, delta.CacheHits, delta.CacheMiss, delta.Runs, delta.Sweeps, delta.Rejected, delta.Timeouts, delta.Failures)
	for _, e := range append(setupPh.errs, timed.errs...) {
		fmt.Println("error:", e)
	}
	attempted := setupPh.sent + timed.sent
	failed := setupPh.failed + timed.failed
	return &result{
		Correct:   failed == 0 && bad == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupDurs), "s"},
			"throughput_rps": {float64(timed.ok()) / timed.elapsed.Seconds(), "1/s"},
			"lat_p50_ms":     {lat.P50, "ms"},
			"lat_tail_ms":    {lat.Tail, "ms"},
			"success_rate":   {float64(timed.ok()) / float64(timed.sent), "ratio"},
			"heap_mb":        {heapMB - bufMB, "MB"},
		},
	}, nil
}
