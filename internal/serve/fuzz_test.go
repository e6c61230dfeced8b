package serve

import "testing"

// FuzzCanonicalize: Canonicalize never panics, and a canonical request
// canonicalizes to itself under the same cache key — the router shards
// by the key it computes and forwards the canonical form, so the replica
// must cache under that same key.
func FuzzCanonicalize(f *testing.F) {
	f.Add("LNN", "")
	f.Add(" nvsa ", "rtx 2080 ti")
	f.Add("NVSA", "Jetson TX2")
	f.Add("", "")
	f.Add("no-such", "RTX 2080 Ti")
	f.Add("LTN", "no-such")
	f.Fuzz(func(t *testing.T, workload, device string) {
		canon, key, err := Canonicalize(Request{Workload: workload, Device: device})
		if err != nil {
			return
		}
		again, key2, err := Canonicalize(canon)
		if err != nil {
			t.Fatalf("canonical %+v rejected: %v", canon, err)
		}
		if again != canon || key2 != key {
			t.Fatalf("canonical %+v (key %q) canonicalizes to %+v (key %q)", canon, key, again, key2)
		}
	})
}
