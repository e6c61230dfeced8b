package membership

import "testing"

// FuzzNormalizeNode: NormalizeNode never panics, and every URL it accepts
// is already canonical — the spelling a join and a static -replicas entry
// both land on must normalize to itself, or one replica would become two
// ring nodes.
func FuzzNormalizeNode(f *testing.F) {
	for _, seed := range []string{
		"http://replica-1:8080", " http://replica-1:8080/ ", "HTTP://Replica-1:8080",
		"https://10.0.0.2:9443", "http://[::1]:8080", "http://user@host:1",
		"http://host?q=1#frag", "", "replica:8080", "ftp://x", "http://", "http://h:1/path",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		node, err := NormalizeNode(raw)
		if err != nil {
			return
		}
		again, err := NormalizeNode(node)
		if err != nil {
			t.Fatalf("NormalizeNode(%q) = %q, which it rejects: %v", raw, node, err)
		}
		if again != node {
			t.Fatalf("NormalizeNode(%q) = %q, but that normalizes to %q", raw, node, again)
		}
	})
}
