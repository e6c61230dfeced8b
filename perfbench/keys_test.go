package main

import (
	"reflect"
	"testing"
)

func draw(w *walk, n int) []key {
	out := make([]key, n)
	for i := range out {
		out[i] = w.Next()
	}
	return out
}

func TestKeySpaces(t *testing.T) {
	all, base := allKeys(), baseKeys()
	if len(all) != 44 || len(base) != 11 {
		t.Fatalf("got %d keys and %d base keys, want 44 and 11", len(all), len(base))
	}
	seen := map[key]bool{}
	for _, k := range all {
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
	}
	for _, k := range base {
		if !seen[k] {
			t.Fatalf("base key %s is not in the full key space", k)
		}
	}
}

func TestWalkIsSeededAndBalanced(t *testing.T) {
	keys := allKeys()
	const rounds = 3
	a := draw(newWalk(keys, 7), rounds*len(keys))
	if b := draw(newWalk(keys, 7), rounds*len(keys)); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different walks")
	}
	if c := draw(newWalk(keys, 8), rounds*len(keys)); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same walk")
	}
	if reflect.DeepEqual(a[:len(keys)], keys) {
		t.Fatal("the walk is not permuted")
	}
	if reflect.DeepEqual(a[:len(keys)], a[len(keys):2*len(keys)]) {
		t.Fatal("two rounds share one order")
	}
	for r := 0; r < rounds; r++ {
		count := map[key]int{}
		for _, k := range a[r*len(keys) : (r+1)*len(keys)] {
			count[k]++
		}
		for _, k := range keys {
			if count[k] != 1 {
				t.Fatalf("round %d draws %s %d times", r, k, count[k])
			}
		}
	}
}
