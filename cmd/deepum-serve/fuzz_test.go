package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepum"
)

// FuzzSubmitSpec feeds the POST /runs decoder adversarial bodies and
// headers. The contract under fuzz: malformed input is a clean 4xx — never
// a 5xx, never a panic — and syntactically valid submissions reach the
// backend. The fake backend accepts everything, so any 5xx the recorder
// sees was minted by the handler itself.
func FuzzSubmitSpec(f *testing.F) {
	valid := `{"model":"bert-base","batch":8,"iterations":3,"seed":1}`
	f.Add(valid, "", "")
	f.Add(valid, "retry-key-1", "30s")
	f.Add("", "", "")                     // empty body
	f.Add("{", "", "")                    // truncated JSON
	f.Add(`{"model": nope`, "", "")       // bare token mid-object
	f.Add(`{"unknown_field": 1}`, "", "") // DisallowUnknownFields
	f.Add(`{"model":3}`, "", "")          // type confusion
	f.Add(`{"batch":"eight"}`, "", "")    // string where int64 expected
	f.Add(`{"batch":1e999}`, "", "")      // float overflow
	f.Add(`{"timeout":-9223372036854775808}`, "", "")
	f.Add(`[]`, "", "") // wrong top-level shape
	f.Add(`{"model":"`+strings.Repeat("x", 4096)+`"}`, "", "")
	f.Add(strings.Repeat("[", 1<<12), "", "") // deep nesting
	f.Add(valid+valid, "", "")                // trailing garbage after object
	f.Add("\x00\xff\xfe", "", "")             // binary junk
	// MaxBytesReader boundary: exactly at the 1<<20 cap and one byte over.
	pad := func(n int) string {
		return `{"model":"bert-base","batch":8,"dataset":"` + strings.Repeat("a", n) + `"}`
	}
	f.Add(pad(1<<20-44), "", "")
	f.Add(pad(1<<20), "", "")
	// Policy field: registered, unknown, hostile, and system mismatches.
	f.Add(`{"model":"bert-base","batch":8,"policy":"correlation"}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":"learned"}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":"gpuvm-window"}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":"nope"}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":""}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":"`+strings.Repeat("p", 4096)+`"}`, "", "")
	f.Add("{\"model\":\"bert-base\",\"batch\":8,\"policy\":\"\x00\x07\"}", "", "")
	f.Add(`{"model":"bert-base","batch":8,"system":"lms","policy":"correlation"}`, "", "")
	f.Add(`{"model":"bert-base","batch":8,"policy":3}`, "", "")
	// Hostile headers.
	f.Add(valid, strings.Repeat("k", deepum.MaxIdempotencyKeyLen+1), "")
	f.Add(valid, "bad key with spaces", "")
	f.Add(valid, "ok-key", "not-a-duration")
	f.Add(valid, "ok-key", "-5s")
	f.Add(valid, "ok-key", "99999999999999999999h")

	f.Fuzz(func(t *testing.T, body, key, deadline string) {
		if len(body) > 2<<20 {
			body = body[:2<<20]
		}
		fb := &fakeBackend{}
		srv := &server{b: fb, stats: func() any { return nil }}
		req := httptest.NewRequest("POST", "/runs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		// Header values with control bytes would be rejected by a real
		// net/http transport before reaching the server; setting them via
		// the map mimics a hand-rolled client that skips validation.
		if key != "" {
			req.Header["Idempotency-Key"] = []string{key}
		}
		if deadline != "" {
			req.Header["X-Deadline"] = []string{deadline}
		}
		rec := httptest.NewRecorder()
		srv.submit(rec, req)
		code := rec.Code
		if code >= 500 {
			t.Fatalf("submit answered %d for body %q key %q deadline %q (want 2xx/4xx)", code, truncate(body), key, deadline)
		}
		if code != http.StatusAccepted && code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("submit answered %d, outside the accept/4xx contract", code)
		}
	})
}

func truncate(s string) string {
	if len(s) > 128 {
		return s[:128] + "..."
	}
	return s
}

// TestSubmitPolicyRejection pins the status codes outside the fuzzer: an
// unknown prefetch policy (or a policy on a system that runs none) is a
// 422 with retryable=false — never admittable — while registered policies
// pass validation and reach the backend.
func TestSubmitPolicyRejection(t *testing.T) {
	ts := newFakeServer(t, &fakeBackend{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, name := range []string{"", "correlation", "learned", "gpuvm-window"} {
		if code := post(`{"model":"bert-base","batch":8,"policy":"` + name + `"}`); code != http.StatusAccepted {
			t.Errorf("policy %q: status %d, want 202", name, code)
		}
	}
	if code := post(`{"model":"bert-base","batch":8,"policy":"nope"}`); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown policy: status %d, want 422", code)
	}
	if code := post(`{"model":"bert-base","batch":8,"system":"lms","policy":"correlation"}`); code != http.StatusUnprocessableEntity {
		t.Errorf("policy on lms: status %d, want 422", code)
	}
}

// TestSubmitOversizedBody pins the MaxBytesReader boundary outside the
// fuzzer: a body one byte over 1<<20 is a 4xx, not a connection-level 5xx.
func TestSubmitOversizedBody(t *testing.T) {
	ts := newFakeServer(t, &fakeBackend{})
	big := `{"model":"bert-base","batch":8,"dataset":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode > 499 {
		t.Fatalf("oversized submit: status %d, want 4xx", resp.StatusCode)
	}
	_ = time.Second // keep the import set stable if assertions change
}
