package main

import (
	"math/rand"
	"sync"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
)

// key is one request target: a registered workload analysed against one
// modelled device.
type key struct {
	Workload string
	Device   string
}

func (k key) String() string { return k.Workload + " @ " + k.Device }

// allKeys is every registered workload on every modelled device, in
// registration order: the 44-key space of the hit and miss workloads.
func allKeys() []key {
	var out []key
	for _, w := range core.WorkloadNames() {
		for _, d := range hwsim.AllDevices() {
			out = append(out, key{w, d.Name})
		}
	}
	return out
}

// baseKeys is every registered workload on the base device (the device
// an empty request resolves to): the explore workload's key space.
func baseKeys() []key {
	var out []key
	for _, w := range core.WorkloadNames() {
		out = append(out, key{w, hwsim.RTX2080Ti.Name})
	}
	return out
}

// walk hands out keys in rounds: each round is a fresh seeded
// permutation of the key set, so every key appears equally often, the
// order depends only on the seed, and no one arrangement of keys (which
// ones run concurrently on a multi-connection loop) persists through a
// run. Connections share one walk, so it is safe for concurrent use.
type walk struct {
	mu    sync.Mutex
	rng   *rand.Rand
	order []key
	pos   int
}

func newWalk(keys []key, seed int64) *walk {
	order := append([]key(nil), keys...)
	return &walk{rng: rand.New(rand.NewSource(seed)), order: order, pos: len(order)}
}

// Next returns the walk's next key.
func (w *walk) Next() key {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pos == len(w.order) {
		w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
		w.pos = 0
	}
	w.pos++
	return w.order[w.pos-1]
}
