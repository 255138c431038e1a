package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
)

// post sends body to the worker endpoint and returns the status and reply.
func post(t *testing.T, c *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp.StatusCode, out.Bytes()
}

// rawPrepare builds a /prepare body for fuzzShard from a free-form JSON
// header, so a test can send fields wireOptions does not declare. The
// header states this build's wire version unless it names one.
func rawPrepare(t *testing.T, hdr map[string]any) []byte {
	t.Helper()
	if _, ok := hdr["wire"]; !ok {
		hdr["wire"] = wireVersion
	}
	js, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	return append(appendHeader(nil, js), hypergraph.AppendCompressed(nil, fuzzShard())...)
}

// runPhase drives one well-formed /step + /commit over every vertex of
// fuzzShard under session and fails unless both answer 200.
func runPhase(t *testing.T, c *http.Client, base, session string) {
	t.Helper()
	all := bitset.New(5)
	for v := uint32(0); v < 5; v++ {
		all.Set(v)
	}
	status, out := post(t, c, base+"/step", stepBody(t, stepRequest{Session: session}, all))
	if status != http.StatusOK {
		t.Fatalf("/step: %d %s", status, out)
	}
	marks := acceptMarks(t, fuzzShard(), out, 0)
	status, out = post(t, c, base+"/commit", commitBody(t, commitRequest{Session: session}, noEffect(marks)))
	if status != http.StatusOK {
		t.Fatalf("/commit: %d %s", status, out)
	}
}

// TestWorkerRejectsHostileOptions: a /prepare whose options the simulator
// cannot run answers 4xx instead of panicking inside the handler (which used
// to leave the worker mutex held, so every later request hung). Afterwards
// the worker still answers /healthz within the client deadline and serves a
// well-formed session. A header carrying the retired model-constant fields
// (even nonsensical values) decodes and runs on the constants, and so does
// an absurd chain-length bound.
func TestWorkerRejectsHostileOptions(t *testing.T) {
	srv := httptest.NewServer(&Worker{Workers: 1})
	defer srv.Close()
	c := &http.Client{Timeout: 5 * time.Second}

	sys := func(edit func(*system.Config)) system.Config {
		s := system.ScaledConfig()
		edit(&s)
		return s
	}
	hostile := map[string]system.Config{
		"zero L1 ways":   sys(func(s *system.Config) { s.L1.Ways = 0 }),
		"zero L2 ways":   sys(func(s *system.Config) { s.L2.Ways = 0 }),
		"zero L3 ways":   sys(func(s *system.Config) { s.L3Bank.Ways = 0 }),
		"zero L3 banks":  sys(func(s *system.Config) { s.L3Banks = 0 }),
		"negative cores": sys(func(s *system.Config) { s.Cores = -1 }),
		"huge L3":        sys(func(s *system.Config) { s.L3Bank.SizeBytes = 1 << 40 }),
	}
	for name, s := range hostile {
		body := rawPrepare(t, map[string]any{"session": "bad", "options": map[string]any{"kind": "chgraph", "sys": s}})
		if status, out := post(t, c, srv.URL+"/prepare", body); status < 400 || status >= 500 {
			t.Errorf("%s: /prepare answered %d (%s), want 4xx", name, status, out)
		}
	}
	for _, iter := range []int{-1, 1 << 40} {
		body := rawPrepare(t, map[string]any{"session": "bad", "iter": iter, "options": map[string]any{"kind": "chgraph"}})
		if status, out := post(t, c, srv.URL+"/prepare", body); status != http.StatusBadRequest {
			t.Errorf("iter %d: /prepare answered %d (%s), want 400", iter, status, out)
		}
	}
	resp, err := c.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz after hostile prepares: %v", err)
	}
	resp.Body.Close()

	legacy := rawPrepare(t, map[string]any{"session": "legacy", "options": map[string]any{
		"kind": "chgraph", "sys": system.ScaledConfig(),
		"costs": map[string]int{"Apply": 0}, "chain_fifo": -1, "edge_fifo": -1,
		"prefetch_distance": -1, "prep_cost": map[string]float64{"ParallelCores": -3},
	}})
	if status, out := post(t, c, srv.URL+"/prepare", legacy); status != http.StatusOK {
		t.Fatalf("legacy /prepare: %d %s", status, out)
	}
	runPhase(t, c, srv.URL, "legacy")

	// An unbounded chain length is legal; the generator's stack is sized by
	// the chunk, not by d_max.
	deep := rawPrepare(t, map[string]any{"session": "deep", "options": map[string]any{
		"kind": "chgraph", "sys": system.ScaledConfig(), "d_max": 1 << 40,
	}})
	if status, out := post(t, c, srv.URL+"/prepare", deep); status != http.StatusOK {
		t.Fatalf("deep /prepare: %d %s", status, out)
	}
	runPhase(t, c, srv.URL, "deep")

	ok := prepareBody(t, prepareRequest{Session: "ok", Options: wireOptions{Kind: "chgraph", Sys: system.ScaledConfig()}}, fuzzShard())
	if status, out := post(t, c, srv.URL+"/prepare", ok); status != http.StatusOK {
		t.Fatalf("/prepare: %d %s", status, out)
	}
	runPhase(t, c, srv.URL, "ok")
}

// TestWorkerSurvivesHandlerPanic: a panicking handler answers 500, releases
// the worker mutex and drops the session, so /healthz reports no session
// (the coordinator's cue to re-prepare) instead of hanging.
func TestWorkerSurvivesHandlerPanic(t *testing.T) {
	w := preparedWorker(t)
	rec := httptest.NewRecorder()
	w.handleBinary(rec, httptest.NewRequest(http.MethodPost, "/step", nil), func([]byte) ([]byte, error) {
		panic("model fault")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	done := make(chan healthReply, 1)
	go func() {
		rec := httptest.NewRecorder()
		w.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var rep healthReply
		json.Unmarshal(rec.Body.Bytes(), &rep)
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Session != "" {
			t.Fatalf("session %q survived a handler panic", rep.Session)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/healthz blocked after a handler panic")
	}
}
