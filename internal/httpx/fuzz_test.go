package httpx

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeBody: DecodeBody never panics, decodes exactly the bodies
// that are one JSON value within MaxBodyBytes, and answers every other
// body 400, or 413 when it is too long. No seed is near the bound: a
// megabyte seed slows mutation a hundredfold, and the 413 path has its
// own tests on both tiers.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"LTN"}`, `{"workload":"LTN"} junk`, `{`, ``, `null`, ` [1, 2] `,
		`1e400`, "\"\xff\"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		var v json.RawMessage
		ok := DecodeBody(rec, req, &v, "bad body")
		want := len(body) <= MaxBodyBytes && json.Valid(body)
		if ok != want {
			t.Fatalf("DecodeBody = %v for a %d-byte body (valid JSON %v), want %v",
				ok, len(body), json.Valid(body), want)
		}
		switch {
		case ok && rec.Code != http.StatusOK:
			t.Fatalf("decoded body answered %d", rec.Code)
		case !ok && len(body) > MaxBodyBytes && rec.Code != http.StatusRequestEntityTooLarge:
			t.Fatalf("%d-byte body answered %d, want 413", len(body), rec.Code)
		case !ok && len(body) <= MaxBodyBytes && rec.Code != http.StatusBadRequest:
			t.Fatalf("invalid body answered %d, want 400", rec.Code)
		}
	})
}
