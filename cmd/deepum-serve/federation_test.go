package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deepum"
)

// testFederationServer builds the HTTP API over a shard federation with a
// fake runner, mirroring testServer for single-supervisor mode.
func testFederationServer(t *testing.T, shardCount int, runner deepum.Runner, grace time.Duration) (*httptest.Server, *deepum.Federation) {
	t.Helper()
	fed, err := deepum.NewFederation(deepum.FederationOptions{
		Shards: shardCount,
		Supervisor: deepum.SupervisorConfig{
			Runner:        runner,
			Estimate:      func(deepum.RunSpec) (int64, error) { return 1 << 20, nil },
			Workers:       2,
			QueueDepth:    64,
			JournalNoSync: true,
		},
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = fed.Drain(ctx)
	})
	ts := httptest.NewServer(newFederationServer(fed, 10*time.Second, grace))
	t.Cleanup(ts.Close)
	return ts, fed
}

// submitOnEveryShard pushes quick runs through the API until every shard
// owns at least one completed run; returns one run ID per shard ordinal.
func submitOnEveryShard(t *testing.T, ts *httptest.Server, fed *deepum.Federation, shards int) map[int]uint64 {
	t.Helper()
	byShard := map[int]uint64{}
	for i := 0; len(byShard) < shards; i++ {
		if i > 200 {
			t.Fatalf("200 submissions covered only %d of %d shards", len(byShard), shards)
		}
		resp := postJSON(t, ts.URL+"/runs", fmt.Sprintf(`{"model":"bert-base","batch":8,"iterations":1,"seed":%d}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		id := decode[map[string]uint64](t, resp)["id"]
		if _, err := fed.Wait(id); err != nil {
			t.Fatal(err)
		}
		ord, ok := fed.Owner(id)
		if !ok {
			t.Fatalf("run %d has no owner", id)
		}
		if _, seen := byShard[ord]; !seen {
			byShard[ord] = id
		}
	}
	return byShard
}

// TestServeMetricsScrapeFederation: federation mode serves the
// federation's families — every per-shard series present at the first
// scrape, at zero — plus the HTTP counters, and the series move after a
// failover.
func TestServeMetricsScrapeFederation(t *testing.T) {
	ts, fed := testFederationServer(t, 3, instant(), 0)

	scrape := func() string {
		t.Helper()
		r, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("metrics: status %d", r.StatusCode)
		}
		if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("metrics content type = %q", ct)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, r.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	// First scrape, before any run or failover: the whole fleet is visible
	// at zero.
	body := scrape()
	for shard := 0; shard < 3; shard++ {
		for _, want := range []string{
			fmt.Sprintf(`deepum_shard_up{shard="%d"} 1`, shard),
			fmt.Sprintf(`deepum_shard_adopted_runs_total{shard="%d"} 0`, shard),
			fmt.Sprintf(`deepum_shard_submissions_total{shard="%d"} 0`, shard),
			fmt.Sprintf(`deepum_shard_queued_runs{shard="%d"} 0`, shard),
			fmt.Sprintf(`deepum_shard_running_runs{shard="%d"} 0`, shard),
		} {
			if !strings.Contains(body, want) {
				t.Errorf("first scrape missing %q", want)
			}
		}
	}
	for _, want := range []string{
		"deepum_federation_handoffs_total 0",
		"deepum_federation_ring_rebalances_total 0",
		"deepum_federation_handoff_rejections_total 0",
		"deepum_federation_shards_live 3",
		"# TYPE deepum_shard_up gauge",
		"# TYPE deepum_shard_adopted_runs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("first scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full body:\n%s", body)
	}

	// Run work, fail a shard over, and the series move.
	submitOnEveryShard(t, ts, fed, 3)
	if _, err := fed.Failover(0); err != nil {
		t.Fatal(err)
	}
	body = scrape()
	for _, want := range []string{
		`deepum_shard_up{shard="0"} 0`,
		"deepum_federation_handoffs_total 1",
		"deepum_federation_ring_rebalances_total 1",
		"deepum_federation_shards_live 2",
		`deepum_http_requests_total{route="GET /metrics"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-failover scrape missing %q\n%s", want, body)
		}
	}
}

// TestServeFederationHandoffWindow drills the kill-to-handoff window over
// HTTP: 503 + Retry-After with the dead shard's ordinal in the JSON body
// while the window is young, hard 500 once it outlives -handoff-grace,
// and normal service again after the handoff.
func TestServeFederationHandoffWindow(t *testing.T) {
	const grace = time.Second
	ts, fed := testFederationServer(t, 2, instant(), grace)
	byShard := submitOnEveryShard(t, ts, fed, 2)

	const victim = 0
	if err := fed.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// A lookup routed to the dead shard answers 503 + Retry-After, and the
	// body names the shard and marks the rejection retryable.
	r, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, byShard[victim]))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("get in handoff window: status %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("handoff 503 carries no Retry-After header")
	}
	reject := decode[map[string]any](t, r)
	if shard, ok := reject["shard"].(float64); !ok || int(shard) != victim {
		t.Fatalf("handoff 503 body names shard %v, want %d: %v", reject["shard"], victim, reject)
	}
	if retryable, _ := reject["retryable"].(bool); !retryable {
		t.Fatalf("handoff 503 body not marked retryable: %v", reject)
	}

	// Fresh submissions whose ID hashes to the dead shard reject the same
	// way; the live shard keeps accepting.
	sawHandoff, sawAccepted := false, false
	for i := 0; i < 200 && !(sawHandoff && sawAccepted); i++ {
		resp := postJSON(t, ts.URL+"/runs", `{"model":"bert-base","batch":8,"iterations":1}`)
		switch resp.StatusCode {
		case http.StatusAccepted:
			sawAccepted = true
		case http.StatusServiceUnavailable:
			body := decode[map[string]any](t, resp)
			if shard, ok := body["shard"].(float64); !ok || int(shard) != victim {
				t.Fatalf("submit 503 body names shard %v, want %d", body["shard"], victim)
			}
			sawHandoff = true
		default:
			t.Fatalf("submit in handoff window: status %d", resp.StatusCode)
		}
	}
	if !sawHandoff || !sawAccepted {
		t.Fatalf("handoff window admission: rejected=%v accepted=%v", sawHandoff, sawAccepted)
	}

	// /shards shows the dead shard pending handoff.
	sresp, err := http.Get(ts.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var shardsBody struct {
		Shards []deepum.FederationShardStats `json:"shards"`
		Stats  deepum.FederationStats        `json:"stats"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&shardsBody); err != nil {
		t.Fatal(err)
	}
	if len(shardsBody.Shards) != 2 || shardsBody.Shards[victim].Alive || !shardsBody.Shards[victim].HandoffPending {
		t.Fatalf("/shards = %+v", shardsBody.Shards)
	}
	if shardsBody.Stats.Live != 1 {
		t.Fatalf("/shards stats live = %d, want 1", shardsBody.Stats.Live)
	}

	// Past the grace window the 503 converts into a hard failure: a
	// handoff that never lands is an outage, not backpressure.
	time.Sleep(grace + 300*time.Millisecond)
	r2, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, byShard[victim]))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("get past handoff grace: status %d, want 500", r2.StatusCode)
	}
	if hard := decode[map[string]any](t, r2); hard["retryable"] == true {
		t.Fatalf("post-grace failure still marked retryable: %v", hard)
	}

	// Handoff lands: the run is served again, from a surviving shard.
	if _, err := fed.Handoff(victim); err != nil {
		t.Fatal(err)
	}
	r3, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, byShard[victim]))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("get after handoff: status %d, want 200", r3.StatusCode)
	}
	info := decode[deepum.RunInfo](t, r3)
	if info.State != deepum.RunCompleted {
		t.Fatalf("adopted run state %s", info.State)
	}
	if ord, _ := fed.Owner(byShard[victim]); ord == victim {
		t.Fatalf("run still owned by dead shard %d", victim)
	}
}
