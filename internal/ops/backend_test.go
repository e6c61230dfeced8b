package ops

import (
	"testing"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestNewDefaultsToSerialBackend(t *testing.T) {
	e := New()
	if got := e.Backend().Name(); got != "serial" {
		t.Fatalf("default backend is %q, want serial", got)
	}
}

func TestWithParallelism(t *testing.T) {
	e := New(WithParallelism(4))
	defer e.Close()
	if e.Backend().Workers() != 4 {
		t.Fatalf("workers = %d, want 4", e.Backend().Workers())
	}
	// One worker is pointless parallelism; the engine keeps serial.
	if got := New(WithParallelism(1)).Backend().Name(); got != "serial" {
		t.Fatalf("WithParallelism(1) backend is %q, want serial", got)
	}
}

func TestWithBackendShares(t *testing.T) {
	be := backend.NewParallel(2)
	defer be.Close()
	e1, e2 := New(WithBackend(be)), New(WithBackend(be))
	if e1.Backend() != e2.Backend() {
		t.Fatal("engines do not share the injected backend")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, name := range []string{"", BackendSerial, BackendParallel} {
		if err := (Config{Backend: name}).Validate(); err != nil {
			t.Errorf("Validate(%q): %v", name, err)
		}
	}
	if err := (Config{Backend: "gpu"}).Validate(); err == nil {
		t.Error("Validate(gpu) accepted an unknown backend")
	}
}

func TestConfigFactorySharesBackend(t *testing.T) {
	newEngine, release := Config{Backend: BackendParallel, Workers: 2}.Factory()
	e1, e2 := newEngine(), newEngine()
	if e1.Backend() != e2.Backend() {
		t.Fatal("factory engines do not share one backend")
	}
	if e1.Backend().Workers() != 2 {
		t.Fatalf("workers = %d, want 2", e1.Backend().Workers())
	}
	release()
	release() // idempotent
	// Engines survive release by degrading to inline dispatch.
	e1.Backend().For(4, 1, func(lo, hi int) {})
}

func TestPoolEngineAndClose(t *testing.T) {
	pool := Config{Backend: BackendParallel, Workers: 2}.NewPool()
	e1, e2 := pool.Engine(), pool.Engine()
	if e1.Backend() != pool.Backend() || e2.Backend() != pool.Backend() {
		t.Fatal("pool engines do not run on the pool's backend")
	}
	if e1.Trace() == e2.Trace() {
		t.Fatal("pool engines must record into private traces")
	}
	pool.Close()
	pool.Close() // idempotent
}

func TestParallelEngineMatchesSerial(t *testing.T) {
	g := tensor.NewRNG(7)
	a, b := g.Normal(0, 1, 64, 64), g.Normal(0, 1, 64, 64)
	serial := New().MatMul(a, b)
	par := New(WithParallelism(4))
	defer par.Close()
	got := par.MatMul(a, b)
	for i, v := range serial.Data() {
		if got.Data()[i] != v {
			t.Fatalf("element %d: serial %v parallel %v", i, v, got.Data()[i])
		}
	}
}

func TestForkJoinDeterministicOrder(t *testing.T) {
	e := New()
	e.SetPhase(trace.Symbolic)
	e.InStage("fork", func() {
		kids := e.Fork(3)
		g := tensor.NewRNG(1)
		for i, k := range kids {
			if k.Phase() != trace.Symbolic {
				t.Fatalf("child %d phase %v, want symbolic", i, k.Phase())
			}
			// Each child records a distinguishable op count.
			for j := 0; j <= i; j++ {
				k.Add(g.Normal(0, 1, 8), g.Normal(0, 1, 8))
			}
		}
		e.Join(kids...)
	})
	tr := e.Trace()
	if tr.Len() != 6 {
		t.Fatalf("merged trace has %d events, want 6", tr.Len())
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.Stage != "fork" || ev.Phase != trace.Symbolic {
			t.Fatalf("event %d lost fork context: stage=%q phase=%v", i, ev.Stage, ev.Phase)
		}
	}
}

func TestOneToleratesEmptyOutputs(t *testing.T) {
	if got := one(nil); got != nil {
		t.Fatalf("one(nil) = %v, want nil", got)
	}
	if got := one([]*tensor.Tensor{}); got != nil {
		t.Fatalf("one(empty) = %v, want nil", got)
	}
}

// grainRecorder is a serial backend that remembers the grain of each
// dispatch, the one place the two GEMV kernels differ observably.
type grainRecorder struct {
	backend.Serial
	grains []int
}

func (g *grainRecorder) For(n, grain int, fn func(lo, hi int)) {
	g.grains = append(g.grains, grain)
	g.Serial.For(n, grain, fn)
}

// ForWorker is the entry the engine's kernel tracer uses.
func (g *grainRecorder) ForWorker(n, grain int, fn func(worker, lo, hi int)) {
	g.grains = append(g.grains, grain)
	g.Serial.ForWorker(n, grain, fn)
}

// TestKernelChoiceReachesMatVec checks that the engine's kernel choice
// drives its GEMV. Both kernels give the same bits, so the test reads the
// dispatch grain instead: at k = 16384 one row is a full 32 KFLOP chunk,
// so the single-row kernel asks for a grain of 1 and the multi-row kernel
// rounds it up to one 4-row block.
func TestKernelChoiceReachesMatVec(t *testing.T) {
	g := tensor.NewRNG(1)
	a, x := g.Normal(0, 1, 8, 16384), g.Normal(0, 1, 16384)
	for _, c := range []struct {
		opts  []Option
		grain int
	}{
		{nil, 4},
		{[]Option{WithKernel(tensor.KernelTiled)}, 4},
		{[]Option{WithKernel(tensor.KernelNaive)}, 1},
		{[]Option{WithKernel(Config{Kernel: tensor.KernelNameNaive}.kernel())}, 1},
	} {
		rec := &grainRecorder{}
		e := New(append([]Option{WithBackend(rec)}, c.opts...)...)
		e.MatVec(a, x)
		if len(rec.grains) != 1 || rec.grains[0] != c.grain {
			t.Errorf("kernel %v: MatVec dispatched grains %v, want [%d]", e.Kernel(), rec.grains, c.grain)
		}
	}
}
