package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chgraph"
)

// doReq issues one HTTP request with an optional tenant header and returns
// status and body.
func doReq(t *testing.T, method, url, tenant string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// tinyHGR is a 6-vertex, 4-hyperedge hypergraph in the text upload format.
const tinyHGR = "6 4\n0 1 2\n1 2 3\n3 4\n4 5 0\n"

// tinyHGR2 shares the shape of tinyHGR but different incidence, so runs on
// the two produce different checksums.
const tinyHGR2 = "6 4\n0 1\n1 2 3 4\n2 5\n0 3 5\n"

func runChecksum(t *testing.T, url, tenant, dataset string) (string, RunResponse) {
	t.Helper()
	body, _ := json.Marshal(RunRequest{Dataset: dataset, Algorithm: "PR", Engine: "chgraph", Iterations: 3})
	code, out := doReq(t, http.MethodPost, url+"/run", tenant, body)
	if code != http.StatusOK {
		t.Fatalf("/run %s as %q: status %d: %s", dataset, tenant, code, out)
	}
	var rr RunResponse
	if err := json.Unmarshal(out, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	return rr.Checksum, rr
}

func TestRegistryLifecycle(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Upload, inspect, list.
	code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/acme/mine", "", []byte(tinyHGR))
	if code != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", code, out)
	}
	var info DatasetInfo
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatalf("decode PUT response: %v", err)
	}
	if info.NumVertices != 6 || info.NumHyperedges != 4 || info.Tenant != "acme" || info.ID == 0 {
		t.Fatalf("bad metadata: %+v", info)
	}
	if code, out = doReq(t, http.MethodGet, ts.URL+"/datasets/acme/mine", "", nil); code != http.StatusOK {
		t.Fatalf("GET: status %d: %s", code, out)
	}
	var list DatasetList
	code, out = doReq(t, http.MethodGet, ts.URL+"/datasets/acme", "", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, out)
	}
	if err := json.Unmarshal(out, &list); err != nil || len(list.Datasets) != 1 || list.TotalBytes == 0 {
		t.Fatalf("bad list (%v): %s", err, out)
	}

	// The registered name runs for its owner and resolves through the prep
	// cache (miss then hit), and matches a direct library run on the same
	// contents bit for bit.
	sum1, rr := runChecksum(t, ts.URL, "acme", "mine")
	if rr.PrepCache != "miss" {
		t.Fatalf("first run: prep_cache %q, want miss", rr.PrepCache)
	}
	sum1b, rr2 := runChecksum(t, ts.URL, "acme", "mine")
	if rr2.PrepCache != "hit" || sum1b != sum1 {
		t.Fatalf("second run: prep_cache %q checksum match %v", rr2.PrepCache, sum1b == sum1)
	}
	g, err := chgraph.ReadHypergraph(strings.NewReader(tinyHGR))
	if err != nil {
		t.Fatalf("ReadHypergraph: %v", err)
	}
	res, err := chgraph.Run(g, "PR", chgraph.RunConfig{Engine: chgraph.ChGraph, Iterations: 3})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if direct := checksum(res.VertexValues, res.HyperedgeValues); direct != sum1 {
		t.Fatalf("served checksum %s != direct %s", sum1, direct)
	}

	// Another tenant does not see the dataset.
	body, _ := json.Marshal(RunRequest{Dataset: "mine", Algorithm: "PR"})
	if code, out = doReq(t, http.MethodPost, ts.URL+"/run", "other", body); code != http.StatusBadRequest {
		t.Fatalf("cross-tenant run: status %d: %s", code, out)
	}

	// Replacing the upload serves the new contents immediately (the old
	// prepared artifact is purged, the new upload id keys fresh ones).
	if code, out = doReq(t, http.MethodPut, ts.URL+"/datasets/acme/mine", "", []byte(tinyHGR2)); code != http.StatusCreated {
		t.Fatalf("re-PUT: status %d: %s", code, out)
	}
	sum2, rr3 := runChecksum(t, ts.URL, "acme", "mine")
	if sum2 == sum1 {
		t.Fatalf("run after replacement kept the old contents")
	}
	if rr3.PrepCache != "miss" {
		t.Fatalf("run after replacement: prep_cache %q, want miss (old artifact purged)", rr3.PrepCache)
	}

	// Delete: metadata and runs both stop resolving.
	if code, out = doReq(t, http.MethodDelete, ts.URL+"/datasets/acme/mine", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", code, out)
	}
	if code, _ = doReq(t, http.MethodGet, ts.URL+"/datasets/acme/mine", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", code)
	}
	if code, _ = doReq(t, http.MethodDelete, ts.URL+"/datasets/acme/mine", "", nil); code != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", code)
	}
	if code, _ = doReq(t, http.MethodPost, ts.URL+"/run", "acme", body); code != http.StatusBadRequest {
		t.Fatalf("run after delete: status %d, want 400", code)
	}

	snap := srv.Metrics()
	if snap.Uploads != 2 || snap.RegistryEvicted != 1 || snap.RegistryDatasets != 0 {
		t.Fatalf("registry counters: uploads %d evicted %d resident %d", snap.Uploads, snap.RegistryEvicted, snap.RegistryDatasets)
	}
}

func TestRegistryTenantIsolationSameName(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for tenant, hgr := range map[string]string{"alpha": tinyHGR, "beta": tinyHGR2} {
		if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/"+tenant+"/g", "", []byte(hgr)); code != http.StatusCreated {
			t.Fatalf("PUT %s: status %d: %s", tenant, code, out)
		}
	}
	sumA, _ := runChecksum(t, ts.URL, "alpha", "g")
	sumB, _ := runChecksum(t, ts.URL, "beta", "g")
	if sumA == sumB {
		t.Fatalf("tenants alpha and beta share one dataset under name \"g\"")
	}

	var datasets int
	for _, tn := range srv.Metrics().Tenants {
		datasets += tn.Datasets
		if (tn.Name == "alpha" || tn.Name == "beta") && tn.Datasets != 1 {
			t.Fatalf("tenant %s shows %d datasets, want 1", tn.Name, tn.Datasets)
		}
	}
	if datasets != 2 {
		t.Fatalf("total registered datasets %d, want 2", datasets)
	}
}

// TestRegistryDeleteWithInFlightRun pins the copy-on-write eviction
// contract: a run that resolved its dataset before the DELETE finishes on
// the old contents (the artifact pointer stays valid even though every
// cached artifact of the dataset is purged), while requests arriving after
// the DELETE are refused.
func TestRegistryDeleteWithInFlightRun(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/acme/busy", "", []byte(tinyHGR)); code != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", code, out)
	}
	want, _ := runChecksum(t, ts.URL, "acme", "busy") // also warms nothing: distinct iterations below

	// A long run (many iterations, fresh prep key) racing the DELETE.
	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(RunRequest{Dataset: "busy", Algorithm: "PR", Engine: "chgraph", Iterations: 40, Cores: 2})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
		req.Header.Set("X-Tenant", "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, b}
	}()

	// Wait until the run is admitted (or give up after 1s — every assertion
	// below holds for both interleavings), then evict its dataset under it.
	deadline := time.Now().Add(time.Second)
	for srv.Metrics().InFlight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if code, out := doReq(t, http.MethodDelete, ts.URL+"/datasets/acme/busy", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", code, out)
	}

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight run after delete: status %d: %s", r.code, r.body)
	}
	var rr RunResponse
	if err := json.Unmarshal(r.body, &rr); err != nil || rr.Checksum == "" {
		t.Fatalf("in-flight run response (%v): %s", err, r.body)
	}
	if want == rr.Checksum {
		// Different iteration counts must not collide; this guards the test
		// itself, not the server.
		t.Fatalf("test bug: warm-up and long run share a checksum")
	}

	// The name is gone for new requests.
	body, _ := json.Marshal(RunRequest{Dataset: "busy", Algorithm: "PR"})
	if code, out := doReq(t, http.MethodPost, ts.URL+"/run", "acme", body); code != http.StatusBadRequest {
		t.Fatalf("run after delete: status %d: %s", code, out)
	}
}

func TestRegistryQuotas(t *testing.T) {
	srv := NewServer(Options{Limits: TenantLimits{MaxDatasets: 1, MaxBytes: 10_000}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/t/a", "", []byte(tinyHGR)); code != http.StatusCreated {
		t.Fatalf("PUT a: status %d: %s", code, out)
	}
	// Second name: over the dataset-count quota.
	code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/t/b", "", []byte(tinyHGR))
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "quota") {
		t.Fatalf("PUT b: status %d: %s", code, out)
	}
	// Replacing the existing name is allowed (frees the old entry first).
	if code, out = doReq(t, http.MethodPut, ts.URL+"/datasets/t/a", "", []byte(tinyHGR2)); code != http.StatusCreated {
		t.Fatalf("re-PUT a: status %d: %s", code, out)
	}

	// Byte quota: a hypergraph over 10 kB is refused.
	var big bytes.Buffer
	fmt.Fprintf(&big, "2000 1000\n")
	for h := 0; h < 1000; h++ {
		fmt.Fprintf(&big, "%d %d %d\n", h, h+1, h+1000)
	}
	code, out = doReq(t, http.MethodPut, ts.URL+"/datasets/t/a", "", big.Bytes())
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "byte quota") {
		t.Fatalf("oversize PUT: status %d: %s", code, out)
	}
	if snap := srv.Metrics(); snap.UploadsRejected != 2 {
		t.Fatalf("uploads_rejected %d, want 2", snap.UploadsRejected)
	}
}

func TestRegistryUploadErrors(t *testing.T) {
	srv := NewServer(Options{MaxUploadBytes: 128})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/t/bad", "", []byte("not a hypergraph")); code != http.StatusBadRequest {
		t.Fatalf("garbage PUT: status %d: %s", code, out)
	}
	long := []byte("10 1\n" + strings.Repeat("1 ", 200) + "\n")
	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/t/huge", "", long); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit PUT: status %d: %s", code, out)
	}
	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/bad!name/x", "", []byte(tinyHGR)); code != http.StatusBadRequest {
		t.Fatalf("bad tenant PUT: status %d: %s", code, out)
	}
	if code, out := doReq(t, http.MethodPut, ts.URL+"/datasets/t/.dot", "", []byte(tinyHGR)); code != http.StatusBadRequest {
		t.Fatalf("bad name PUT: status %d: %s", code, out)
	}
}

// TestRegistryUploadFormatFromMagic: the stored format label follows the
// body's magic, whatever the Content-Type header says — CHG2 bytes sent as
// text/plain are "binary", a text body sent as octet-stream is "text".
func TestRegistryUploadFormatFromMagic(t *testing.T) {
	ts := httptest.NewServer(NewServer(Options{}))
	defer ts.Close()
	g, err := chgraph.ReadHypergraph(strings.NewReader(tinyHGR))
	if err != nil {
		t.Fatal(err)
	}
	var chg2 bytes.Buffer
	if err := g.WriteBinary(&chg2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, contentType string
		body              []byte
		want              string
	}{
		{"bin-as-text", "text/plain", chg2.Bytes(), "binary"},
		{"text-as-bin", "application/octet-stream", []byte(tinyHGR), "text"},
		{"bin", "application/octet-stream", chg2.Bytes(), "binary"},
		{"text", "", []byte(tinyHGR), "text"},
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/datasets/acme/"+c.name, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, out)
		}
		var info DatasetInfo
		if err := json.Unmarshal(out, &info); err != nil {
			t.Fatal(err)
		}
		if info.Format != c.want || info.NumVertices != 6 || info.NumHyperedges != 4 {
			t.Fatalf("%s: format %q (%d vertices, %d hyperedges), want %q", c.name, info.Format, info.NumVertices, info.NumHyperedges, c.want)
		}
	}
}
