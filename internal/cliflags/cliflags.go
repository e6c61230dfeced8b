// Package cliflags declares the flags the offline commands (cmd/nsbench
// and cmd/nsprof) share — the execution backend and its worker count,
// the kernel choice, the metrics dump and the log format — and turns
// them into the engine config, logger and metrics registry a run uses.
package cliflags

import (
	"flag"
	"io"
	"os"

	"github.com/neurosym/nsbench/internal/logging"
	"github.com/neurosym/nsbench/internal/metrics"
	"github.com/neurosym/nsbench/internal/ops"
)

// Common holds the shared flags' values after parsing.
type Common struct {
	Backend   string
	Workers   int
	Kernel    string
	Metrics   string
	LogFormat string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.Backend, "backend", ops.BackendSerial, "execution backend: serial or parallel")
	fs.IntVar(&c.Workers, "workers", 0, "parallel backend worker count (0 = GOMAXPROCS)")
	fs.StringVar(&c.Kernel, "kernel", "auto", "GEMM/GEMV/conv kernel implementation: auto (measured dispatch table), naive, or tiled")
	fs.StringVar(&c.Metrics, "metrics", "", "dump runtime/pool/operator metrics (Prometheus text) to this file at exit (\"-\" = stderr)")
	fs.StringVar(&c.LogFormat, "log-format", logging.FormatText, "log output format: text or json")
	return c
}

// SetupLogging installs the -log-format logger as the slog default.
func (c *Common) SetupLogging() error {
	_, err := logging.Setup(os.Stderr, c.LogFormat, false)
	return err
}

// Engine returns the validated engine config -backend, -workers and
// -kernel select.
func (c *Common) Engine() (ops.Config, error) {
	eng := ops.Config{Backend: c.Backend, Workers: c.Workers, Kernel: c.Kernel}
	return eng, eng.Validate()
}

// Registry returns a registry with Go runtime and build-info metrics when
// -metrics is set, else nil. A caller observes its pool with
// ops.RegisterPoolMetrics and ops.NewOpObserver.
func (c *Common) Registry() *metrics.Registry {
	if c.Metrics == "" {
		return nil
	}
	reg := metrics.NewRegistry()
	metrics.NewGoCollector(reg)
	metrics.RegisterBuildInfo(reg)
	return reg
}

// DumpMetrics writes reg's Prometheus exposition to the -metrics path
// ("-" selects stderr, keeping stdout clean for tables and reports). A
// nil reg writes nothing.
func (c *Common) DumpMetrics(reg *metrics.Registry) error {
	switch {
	case reg == nil:
		return nil
	case c.Metrics == "-":
		return reg.WriteProm(os.Stderr)
	}
	return WriteFile(c.Metrics, reg.WriteProm)
}

// WriteFile streams an export function into a freshly created file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
