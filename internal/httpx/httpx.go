// Package httpx is the HTTP plumbing the two serving tiers share: the
// replica (internal/serve) and the router (internal/cluster). It owns
// request-ID minting, the instrumentation middleware with its
// availability feed, method gating, bounded JSON bodies, the JSON writer,
// the /metrics, /healthz, /readyz and /v1/slo endpoints with the two
// service-level objectives behind /v1/slo, and the signal-driven server
// lifecycle of cmd/nsserve and cmd/nsrouter.
//
// A tier hands New only what differs between the tiers: its metric and
// request-ID prefixes, its readiness check and its latency threshold.
package httpx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/slo"
)

// The objectives' success-ratio targets, the same on both tiers.
const (
	// AvailabilityTarget is the non-5xx share of all responses outside
	// the probe endpoints.
	AvailabilityTarget = 0.999
	// LatencyTarget is the share of /v1/characterize responses that must
	// finish within the tier's latency threshold.
	LatencyTarget = 0.95
)

// Config is what a tier tells the shared plumbing about itself.
type Config struct {
	// Prefix starts the request counter's and latency histogram's names:
	// "nsserve_" or "nsrouter_".
	Prefix string
	// IDPrefix starts every request ID minted here: "ns-" or "nsr-".
	IDPrefix string
	// Routed selects the router's wording for the metric help, the SLO
	// descriptions and the per-request log line.
	Routed bool
	// LatencyThreshold is the characterize_latency objective's cutoff.
	LatencyThreshold time.Duration
	// NotReady is the readiness check: "" while the tier wants traffic,
	// else the reason /readyz answers 503 with.
	NotReady func() string
	// Logger, when non-nil, receives one line per request.
	Logger *slog.Logger
}

// wording is the text that differs between the tiers' otherwise
// identical metrics, objectives and log lines.
type wording struct {
	reqsHelp, latHelp, availDesc, latDesc, logMsg string
}

var tierWording = map[bool]wording{
	false: {
		reqsHelp:  "HTTP requests by endpoint and status code.",
		latHelp:   "HTTP request latency by endpoint.",
		availDesc: "Non-5xx responses across all endpoints (health/readiness probes excluded).",
		latDesc:   "/v1/characterize responses within %s (histogram-bucket resolution).",
		logMsg:    "request",
	},
	true: {
		reqsHelp:  "Routed HTTP requests by endpoint and status code.",
		latHelp:   "Routing latency by endpoint, upstream time included.",
		availDesc: "Non-5xx responses across all routed endpoints (health/readiness probes excluded).",
		latDesc:   "Routed /v1/characterize responses within %s (histogram-bucket resolution).",
		logMsg:    "route",
	},
}

// Tier is one tier's instrumented front: its request metrics, request
// IDs, SLO set and shared endpoints. Construct with New; Close stops the
// SLO sampler.
type Tier struct {
	cfg    Config
	logMsg string
	reg    *metrics.Registry
	reqs   *metrics.CounterVec   // <prefix>http_requests_total{endpoint,code}
	lat    *metrics.HistogramVec // <prefix>http_request_seconds{endpoint}
	slos   *slo.Set

	// SLOGood and SLOTotal are the availability objective's feed: non-5xx
	// and all responses outside the probe endpoints, counted by the
	// middleware. They are unregistered: the SLO plane exports its own
	// ns_slo_* view of them.
	SLOGood, SLOTotal metrics.Counter

	// Request IDs are a per-process nonce plus a counter, so they are
	// unique across restarts without coordination.
	nonce string
	seq   atomic.Uint64
}

// New registers the tier's request metrics and SLO gauges in reg and
// starts the SLO sampler.
func New(reg *metrics.Registry, cfg Config) (*Tier, error) {
	words := tierWording[cfg.Routed]
	t := &Tier{
		cfg:    cfg,
		logMsg: words.logMsg,
		reg:    reg,
		reqs: reg.CounterVec(cfg.Prefix+"http_requests_total",
			words.reqsHelp, "endpoint", "code"),
		lat: reg.HistogramVec(cfg.Prefix+"http_request_seconds",
			words.latHelp, metrics.LatencyBuckets(), "endpoint"),
		slos:  slo.NewSet(slo.Config{}),
		nonce: newNonce(),
	}
	for _, obj := range []slo.Objective{{
		Name:        "availability",
		Description: words.availDesc,
		Target:      AvailabilityTarget,
		Source:      slo.FromCounters(t.SLOGood.Value, t.SLOTotal.Value),
	}, {
		Name:        "characterize_latency",
		Description: fmt.Sprintf(words.latDesc, cfg.LatencyThreshold),
		Target:      LatencyTarget,
		Source:      slo.FromHistogram(t.lat.With("/v1/characterize"), cfg.LatencyThreshold.Seconds()),
	}} {
		if err := t.slos.Add(obj); err != nil {
			return nil, err
		}
	}
	t.slos.Register(reg)
	t.slos.Start()
	return t, nil
}

// Close stops the SLO sampler.
func (t *Tier) Close() { t.slos.Close() }

// Mux returns a route table holding the shared endpoints — /metrics,
// /healthz, /readyz and /v1/slo — each instrumented; the tier adds its
// own with Handle.
func (t *Tier) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	t.Handle(mux, "/v1/slo", t.handleSLO)
	t.Handle(mux, "/metrics", t.handleMetrics)
	t.Handle(mux, "/healthz", t.handleHealthz)
	t.Handle(mux, "/readyz", t.handleReadyz)
	return mux
}

// Handle mounts h at endpoint on mux behind the instrumentation.
func (t *Tier) Handle(mux *http.ServeMux, endpoint string, h http.HandlerFunc) {
	mux.HandleFunc(endpoint, t.instrument(endpoint, h))
}

// newNonce returns a short random hex tag for request-ID generation.
func newNonce() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "static"
	}
	return hex.EncodeToString(b[:])
}

// ctxKeyRequestID carries the request's ID through the handler chain.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestID returns the ID the middleware assigned to (or accepted from) r.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID).(string)
	return id
}

// instrument wraps h with per-endpoint request/latency metrics, assigns
// every request an ID (honoring an inbound X-Request-ID so IDs correlate
// across the router and its replicas, else minting one), echoes it on the
// response, and — when the tier has a logger — emits one structured line
// per request. The latency child is resolved once here; only the
// (endpoint, code) counter pays a labeled lookup per request, after the
// response is written.
func (t *Tier) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := t.lat.With(endpoint)
	// The probe endpoints stay out of the availability feed: their 503 is
	// the readiness contract working as designed (a draining replica, or a
	// router whose ring is empty, answering "not ready" must not burn the
	// error budget it is protecting).
	isProbe := endpoint == "/healthz" || endpoint == "/readyz"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s%s-%d", t.cfg.IDPrefix, t.nonce, t.seq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur := time.Since(start)
		lat.ObserveSeconds(dur.Nanoseconds())
		t.reqs.With(endpoint, strconv.Itoa(sw.code)).Inc()
		if !isProbe {
			t.SLOTotal.Inc()
			if sw.code < 500 {
				t.SLOGood.Inc()
			}
		}
		if t.cfg.Logger != nil {
			t.cfg.Logger.Info(t.logMsg,
				"method", r.Method, "path", r.URL.Path,
				"status", sw.code, "dur", dur, "id", id)
		}
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming endpoints
// (/v1/explore) push NDJSON chunks through the instrumentation.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AllowMethods gates r to the listed methods. On a mismatch it answers
// 405 with the Allow header RFC 9110 §15.5.6 requires and reports false.
func AllowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// MaxBodyBytes bounds every request body the replica and the router
// decode, and every replica response the router buffers. Reports, the
// largest bodies (cache fills), are tens of kilobytes.
const MaxBodyBytes = 1 << 20

// DecodeBody unmarshals r's JSON body into v, reading at most
// MaxBodyBytes of it. An oversize body is answered 413 rather than
// truncated into a misleading JSON syntax error; an unreadable one 400,
// and a malformed one (trailing data after the value included) 400 with
// the error prefixed by what. Both tiers decode through it, so a body
// gets the same answer from the router as from a replica. It reports
// whether v was decoded.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
	default:
		if err := json.Unmarshal(raw, v); err != nil {
			http.Error(w, what+": "+err.Error(), http.StatusBadRequest)
			return false
		}
		return true
	}
	return false
}

// WriteJSON answers with v as an application/json body. A json.RawMessage
// is written verbatim — cached reports keep their exact bytes and skip a
// re-encode; anything else is marshalled, and a value that cannot be is
// answered 500.
func WriteJSON(w http.ResponseWriter, v any) {
	b, ok := v.(json.RawMessage)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleMetrics exposes the registry in the Prometheus text format.
func (t *Tier) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !AllowMethods(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	if r.Method == http.MethodHead {
		return
	}
	t.reg.WriteProm(w)
}

// handleHealthz is the liveness probe: a cheap 200 that proves the
// process is up, accepting connections, and routing requests. It
// deliberately checks nothing deeper — a draining or saturated tier is
// still *alive*. Routing decisions belong to readiness (/readyz).
func (t *Tier) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probe(w, r, "ok", "")
}

// handleReadyz is the readiness probe: 200 while the tier wants new
// traffic, 503 with the tier's reason otherwise. Load balancers and the
// router's health checker route on it.
func (t *Tier) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probe(w, r, "ready", t.cfg.NotReady())
}

// probe answers a probe endpoint: 200 with ok when notReady is empty,
// else 503 with notReady.
func probe(w http.ResponseWriter, r *http.Request, ok, notReady string) {
	if !AllowMethods(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	code, body := http.StatusOK, ok
	if notReady != "" {
		code, body = http.StatusServiceUnavailable, notReady
	}
	w.WriteHeader(code)
	if r.Method != http.MethodHead {
		fmt.Fprintln(w, body)
	}
}

// handleSLO reports the tier's objectives: error budgets, windowed burn
// rates, and alert state, as computed by the slo sampler.
func (t *Tier) handleSLO(w http.ResponseWriter, r *http.Request) {
	if !AllowMethods(w, r, http.MethodGet) {
		return
	}
	WriteJSON(w, t.slos.Report())
}
