package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/trace"
)

// phase is what one load phase (set-up or timed) observed: request
// counts by outcome and HTTP status, latencies, and per key the distinct
// observations the correctness check verifies afterwards, with how many
// responses produced each.
type phase struct {
	name    string
	sent    int
	failed  int // transport errors, non-200 statuses and malformed bodies
	status  map[int]int
	lat     []float64 // milliseconds, every completed request
	latWl   []string  // the workload of each latency sample
	obs     map[key]map[string]*int
	errs    []string
	elapsed time.Duration // first send to last completion

	// Traced phases only: the client span of every request, and the
	// replica-side slices fetched for the sampled ones.
	spans   []trace.WireSpan
	remotes []trace.RequestTrace
}

func newPhase(name string) *phase {
	return &phase{name: name, status: map[int]int{}, obs: map[key]map[string]*int{}}
}

// observe counts one observation for k without allocating when the
// observation was seen before.
func (p *phase) observe(k key, ob []byte) {
	m := p.obs[k]
	if m == nil {
		m = map[string]*int{}
		p.obs[k] = m
	}
	if c := m[string(ob)]; c != nil {
		*c++
		return
	}
	n := 1
	m[string(ob)] = &n
}

func (p *phase) fail(format string, args ...any) { p.failN(1, format, args...) }

// failN counts n failed responses that share one cause.
func (p *phase) failN(n int, format string, args ...any) {
	p.failed += n
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another lane's phase into p.
func (p *phase) merge(o *phase) {
	p.sent += o.sent
	p.failed += o.failed
	for s, n := range o.status {
		p.status[s] += n
	}
	p.lat = append(p.lat, o.lat...)
	p.latWl = append(p.latWl, o.latWl...)
	for k, m := range o.obs {
		dst := p.obs[k]
		if dst == nil {
			dst = map[string]*int{}
			p.obs[k] = dst
		}
		for ob, n := range m {
			if c := dst[ob]; c != nil {
				*c += *n
			} else {
				dst[ob] = n
			}
		}
	}
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	p.spans = append(p.spans, o.spans...)
	p.remotes = append(p.remotes, o.remotes...)
}

func (p *phase) sample(k key, d time.Duration) {
	p.lat = append(p.lat, ms(d))
	p.latWl = append(p.latWl, k.Workload)
}

// byWorkload renders each workload's median latency and sample count,
// fastest first: the latency groups p50 and the tail fall into.
func (p *phase) byWorkload() string {
	groups := map[string][]float64{}
	for i, wl := range p.latWl {
		groups[wl] = append(groups[wl], p.lat[i])
	}
	type group struct {
		name string
		p50  float64
		n    int
	}
	var gs []group
	for name, lat := range groups {
		gs = append(gs, group{name, median(lat), len(lat)})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].p50 < gs[j].p50 })
	var b bytes.Buffer
	b.WriteString("p50 by workload:")
	for _, g := range gs {
		fmt.Fprintf(&b, " %s %.3g ms (%d),", g.name, g.p50, g.n)
	}
	return strings.TrimSuffix(b.String(), ",")
}

// tails renders every tail percentile the sample supports, up to the
// highest with minBeyond samples beyond it.
func (p *phase) tails() string {
	sorted := append([]float64(nil), p.lat...)
	sort.Float64s(sorted)
	best, err := tailPercentile(len(sorted))
	if err != nil {
		return "tails: " + err.Error()
	}
	var b strings.Builder
	b.WriteString("tails:")
	for _, bp := range tailCandidates {
		if bp <= best {
			fmt.Fprintf(&b, " %s %.4f ms", pctName(bp), percentile(sorted, bp))
		}
	}
	return b.String()
}

// bufferMB is the heap the phase's own latency buffers take, which the
// retained-heap metric leaves out: it would otherwise grow with the
// benchmark's sample count, not with the serving tier's state.
func (p *phase) bufferMB() float64 {
	return float64(cap(p.lat)*8+cap(p.latWl)*16) / (1 << 20)
}

// ok is the number of requests that completed with a well-formed 200.
func (p *phase) ok() int { return p.sent - p.failed }

// describe renders the phase's request accounting in one line.
func (p *phase) describe() string {
	codes := make([]int, 0, len(p.status))
	for c := range p.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s: sent %d, succeeded %d, failed %d, statuses", p.name, p.sent, p.ok(), p.failed)
	for _, c := range codes {
		fmt.Fprintf(&b, " %d×%d", c, p.status[c])
	}
	return b.String()
}

// tracing configures a traced phase: which requests get their replica
// spans fetched, and from where.
type tracing struct {
	every  int // fetch replica spans for every every-th request of a lane
	client *http.Client
	nodes  func(resp *http.Response) []string
	events bool // keep replica operator events too, not just spans
}

// loop is one closed-loop load phase: conns lanes, each sending its next
// request only after the previous one completed, drawing keys from a
// shared walk until the deadline passes or, with count > 0, until count
// requests have been sent.
type loop struct {
	client  *http.Client
	url     string
	body    func(k key) []byte
	observe func(body []byte) ([]byte, error)
	walk    *walk
	conns   int
	latCap  int // per-lane latency capacity, preallocated so the heap does not track throughput
	trace   *tracing
}

func (l *loop) run(name string, deadline time.Time, count int) *phase {
	var remaining atomic.Int64
	remaining.Store(int64(count))
	lanes := make([]*phase, l.conns)
	ends := make([]time.Time, l.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = newPhase(name)
		lanes[i].lat = make([]float64, 0, l.latCap)
		lanes[i].latWl = make([]string, 0, l.latCap)
		wg.Add(1)
		go func(lane int, p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; ; n++ {
				if count > 0 {
					if remaining.Add(-1) < 0 {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				l.one(lane, n, p, &buf)
			}
			ends[lane] = time.Now()
		}(i, lanes[i])
	}
	wg.Wait()
	out := newPhase(name)
	out.lat = make([]float64, 0, l.conns*l.latCap)
	out.latWl = make([]string, 0, l.conns*l.latCap)
	for _, p := range lanes {
		out.merge(p)
	}
	for _, end := range ends {
		if d := end.Sub(start); d > out.elapsed {
			out.elapsed = d
		}
	}
	return out
}

// one sends a single request and records its outcome in p.
func (l *loop) one(lane, n int, p *phase, buf *bytes.Buffer) {
	k := l.walk.Next()
	var id string
	if l.trace != nil {
		id = fmt.Sprintf("perfbench-%s-%d-%d", p.name, lane, n)
	}
	p.sent++
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(l.body(k)))
	if err != nil {
		p.fail("%s: %v", k, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if l.trace != nil {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		p.status[0]++
		p.sample(k, time.Since(start))
		p.fail("%s: %v", k, err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	p.sample(k, end.Sub(start))
	p.status[resp.StatusCode]++
	switch {
	case err != nil:
		p.fail("%s: reading body: %v", k, err)
	case resp.StatusCode != http.StatusOK:
		p.fail("%s: status %d: %.200s", k, resp.StatusCode, buf.Bytes())
	default:
		if ob, err := l.observe(buf.Bytes()); err != nil {
			p.fail("%s: %v", k, err)
		} else {
			p.observe(k, ob)
		}
	}
	if l.trace == nil {
		return
	}
	p.spans = append(p.spans, trace.WireSpan{
		Name: "client " + k.String(), Kind: "client", Worker: lane + 1,
		StartUnixNs: start.UnixNano(), DurNs: end.Sub(start).Nanoseconds(),
	})
	if n%l.trace.every == 0 {
		for _, node := range l.trace.nodes(resp) {
			rt, err := fetchSlice(l.trace.client, node, id, l.trace.events)
			if err != nil {
				// Tracing is best effort: a lost slice thins the per-layer
				// sample but does not fail the request.
				if len(p.errs) < 5 {
					p.errs = append(p.errs, fmt.Sprintf("%s: fetching replica spans: %v", k, err))
				}
				continue
			}
			p.remotes = append(p.remotes, rt)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
