package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/neurosym/nsbench/internal/cluster"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/serve"
)

// replicaConfig mirrors cmd/nsserve's flag defaults — parallel backend
// with GOMAXPROCS workers, 2 characterization workers, a 2 ms batch
// window of at most 8, a 128-report cache and a 512-event flight
// recorder — except that per-request logging is off (-quiet). cacheSize
// < 0 disables the cache, as -cache does.
func replicaConfig(name string, cacheSize int) serve.Config {
	return serve.Config{
		Engine:       ops.Config{Backend: ops.BackendParallel, Workers: 0},
		CacheSize:    cacheSize,
		Concurrency:  2,
		BatchWindow:  2 * time.Millisecond,
		BatchMax:     8,
		RecorderSize: 512,
		NodeName:     name,
	}
}

// listener is one HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// replica is one in-process nsserve.
type replica struct {
	name string
	srv  *serve.Server
	l    *listener
}

// deployment is the serving tier one workload runs against: replicas and,
// when routed, an nsrouter in front of them. front is where load goes.
type deployment struct {
	replicas []*replica
	router   *cluster.Router
	rl       *listener
	front    string
}

// deploy starts n replicas with the given cache size, named
// <prefix>-replica-<i>, plus an nsrouter with its binary's defaults
// (replication 1, no hedging) over a static replica list when routed.
func deploy(prefix string, n, cacheSize int, routed bool) (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-replica-%d", prefix, i)
		srv, err := serve.New(replicaConfig(name, cacheSize))
		if err != nil {
			d.close()
			return nil, err
		}
		l, err := listen(srv.Handler())
		if err != nil {
			srv.Close()
			d.close()
			return nil, err
		}
		d.replicas = append(d.replicas, &replica{name: name, srv: srv, l: l})
		urls = append(urls, l.url)
	}
	d.front = urls[0]
	if !routed {
		return d, nil
	}
	rt, err := cluster.New(cluster.Config{Replicas: urls, Replication: 1, NodeName: prefix + "-router"})
	if err != nil {
		d.close()
		return nil, err
	}
	d.router = rt
	if d.rl, err = listen(rt.Handler()); err != nil {
		d.close()
		return nil, err
	}
	d.front = d.rl.url
	return d, nil
}

// close stops the router, then every replica: listener first so no
// handler races the server's queue teardown.
func (d *deployment) close() error {
	var err error
	if d.rl != nil {
		err = errors.Join(err, d.rl.close())
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, r := range d.replicas {
		err = errors.Join(err, r.l.close())
		r.srv.Close()
	}
	return err
}

// counters are the replicas' /v1/stats counters summed over a
// deployment; batchItems is recovered from each replica's mean occupancy
// so that occupancy over a phase is a difference of two snapshots.
type counters struct {
	Requests, CacheHits, CacheMiss, Rejected, Timeouts, Failures, Runs int64
	Batches                                                            int64
	BatchItems                                                         float64
	Sweeps, Points                                                     int64
}

func (c counters) sub(o counters) counters {
	return counters{
		Requests: c.Requests - o.Requests, CacheHits: c.CacheHits - o.CacheHits,
		CacheMiss: c.CacheMiss - o.CacheMiss, Rejected: c.Rejected - o.Rejected,
		Timeouts: c.Timeouts - o.Timeouts, Failures: c.Failures - o.Failures,
		Runs: c.Runs - o.Runs, Batches: c.Batches - o.Batches,
		BatchItems: c.BatchItems - o.BatchItems,
		Sweeps:     c.Sweeps - o.Sweeps, Points: c.Points - o.Points,
	}
}

// stats sums the replicas' /v1/stats snapshots.
func (d *deployment) stats(c *http.Client) (counters, error) {
	var sum counters
	for _, r := range d.replicas {
		var s serve.Snapshot
		if err := getJSON(c, r.l.url+"/v1/stats", &s); err != nil {
			return sum, err
		}
		sum.Requests += s.Requests
		sum.CacheHits += s.CacheHits
		sum.CacheMiss += s.CacheMiss
		sum.Rejected += s.Rejected
		sum.Timeouts += s.Timeouts
		sum.Failures += s.Failures
		sum.Runs += s.Runs
		sum.Batches += s.BatchesRun
		sum.BatchItems += s.AvgOccupancy * float64(s.BatchesRun)
		sum.Sweeps += s.SweepsRun
		sum.Points += s.PointsEvaluated
	}
	return sum, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// newClient returns an HTTP client that keeps at most conns connections
// per host, so a load loop with conns lanes reuses exactly that many.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}
