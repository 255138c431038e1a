package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"chgraph"
)

// The dataset registry holds tenant-uploaded hypergraphs so /run and
// /mutate can address real data by name instead of only the synthetic
// recipes. Lifecycle:
//
//	PUT    /datasets/{tenant}/{name}  upload (text, or binary: "CHG2")
//	GET    /datasets/{tenant}/{name}  metadata
//	GET    /datasets/{tenant}         list the tenant's datasets
//	DELETE /datasets/{tenant}/{name}  evict
//
// Every upload gets a fresh monotone id that is woven into the prep-cache
// and coalescing keys ("reg/<tenant>/<name>@<id>/..."), so re-uploading a
// name can never serve artifacts prepared from the previous contents, and
// DELETE purges all prepared artifacts derived from the dataset by key
// prefix. Runs already holding an artifact pointer finish on it — the same
// copy-on-write discipline /mutate uses. Uploads are budgeted per tenant
// (TenantLimits.MaxDatasets / MaxBytes) at registration time, the same
// memory-bounded-at-ingest stance the streaming partitioner takes.

// dataset is one registered hypergraph.
type dataset struct {
	tenant, name string
	id           uint64
	g            *chgraph.Hypergraph
	bytes        int64
	format       string // "text" or "binary"
	created      time.Time
}

// approxBytes estimates the resident footprint of a hypergraph: both CSR
// sides' adjacency (uint32 each) plus both offset arrays.
func approxBytes(g *chgraph.Hypergraph) int64 {
	return 8*int64(g.NumBipartiteEdges()) + 4*(int64(g.NumVertices())+int64(g.NumHyperedges())+2)
}

// registry is the tenant-scoped dataset table.
type registry struct {
	mu     sync.Mutex
	m      map[string]map[string]*dataset // tenant -> name -> dataset
	nextID uint64
}

func newRegistry() *registry {
	return &registry{m: map[string]map[string]*dataset{}}
}

func (rg *registry) lookup(tenant, name string) (*dataset, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	ds, ok := rg.m[tenant][name]
	return ds, ok
}

// usage returns the tenant's dataset count and approximate resident bytes.
func (rg *registry) usage(tenant string) (count int, bytes int64) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, ds := range rg.m[tenant] {
		count++
		bytes += ds.bytes
	}
	return count, bytes
}

// totals returns registry-wide dataset count and bytes.
func (rg *registry) totals() (count int, bytes int64) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, per := range rg.m {
		for _, ds := range per {
			count++
			bytes += ds.bytes
		}
	}
	return count, bytes
}

// put registers (or replaces) a dataset, enforcing the tenant's registry
// quota. It returns the stored entry and the replaced one (nil if the name
// is new).
func (rg *registry) put(tenant string, lim TenantLimits, name, format string, g *chgraph.Hypergraph) (*dataset, *dataset, error) {
	size := approxBytes(g)
	rg.mu.Lock()
	defer rg.mu.Unlock()
	per := rg.m[tenant]
	if per == nil {
		per = map[string]*dataset{}
		rg.m[tenant] = per
	}
	old := per[name]
	count, bytes := len(per), int64(0)
	for _, ds := range per {
		bytes += ds.bytes
	}
	if old != nil {
		count, bytes = count-1, bytes-old.bytes // replacement frees the old entry
	}
	if lim.MaxDatasets > 0 && count+1 > lim.MaxDatasets {
		return nil, nil, fmt.Errorf("%w: tenant %q dataset quota exceeded (%d datasets, cap %d)",
			errQuota, tenant, count, lim.MaxDatasets)
	}
	if lim.MaxBytes > 0 && bytes+size > lim.MaxBytes {
		return nil, nil, fmt.Errorf("%w: tenant %q byte quota exceeded (%d + %d bytes, cap %d)",
			errQuota, tenant, bytes, size, lim.MaxBytes)
	}
	rg.nextID++
	ds := &dataset{
		tenant: tenant, name: name, id: rg.nextID,
		g: g, bytes: size, format: format, created: time.Now().UTC(),
	}
	per[name] = ds
	return ds, old, nil
}

// remove evicts a dataset, returning it for prep-cache purging.
func (rg *registry) remove(tenant, name string) (*dataset, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	ds, ok := rg.m[tenant][name]
	if ok {
		delete(rg.m[tenant], name)
		if len(rg.m[tenant]) == 0 {
			delete(rg.m, tenant)
		}
	}
	return ds, ok
}

// list returns the tenant's datasets sorted by name.
func (rg *registry) list(tenant string) []*dataset {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]*dataset, 0, len(rg.m[tenant]))
	for _, ds := range rg.m[tenant] {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// errQuota marks registry-quota refusals, mapped to 413.
var errQuota = errors.New("quota exceeded")

// keyPrefix is the dataset's component prefix in prep/flight keys; a
// trailing "@<id>/" pins the exact upload, and dropping the id gives the
// purge prefix covering every upload of the name.
func regKey(tenant, name string, id uint64) string {
	return fmt.Sprintf("reg/%s/%s@%d", tenant, name, id)
}
func regPurgePrefix(tenant, name string) string {
	return fmt.Sprintf("reg/%s/%s@", tenant, name)
}

// DatasetInfo is the registry's metadata document for one dataset.
type DatasetInfo struct {
	Tenant            string `json:"tenant"`
	Name              string `json:"name"`
	ID                uint64 `json:"id"`
	NumVertices       uint32 `json:"num_vertices"`
	NumHyperedges     uint32 `json:"num_hyperedges"`
	NumBipartiteEdges uint64 `json:"num_bipartite_edges"`
	ApproxBytes       int64  `json:"approx_bytes"`
	Format            string `json:"format"`
	Created           string `json:"created"`
}

func (ds *dataset) info() DatasetInfo {
	return DatasetInfo{
		Tenant: ds.tenant, Name: ds.name, ID: ds.id,
		NumVertices:       ds.g.NumVertices(),
		NumHyperedges:     ds.g.NumHyperedges(),
		NumBipartiteEdges: ds.g.NumBipartiteEdges(),
		ApproxBytes:       ds.bytes,
		Format:            ds.format,
		Created:           ds.created.Format(time.RFC3339),
	}
}

// pathNames validates the {tenant}/{name} pair of a registry route.
func pathNames(w http.ResponseWriter, r *http.Request) (tenant, name string, ok bool) {
	tenant, name = r.PathValue("tenant"), r.PathValue("name")
	if !validName(tenant) {
		http.Error(w, fmt.Sprintf("invalid tenant name %q", tenant), http.StatusBadRequest)
		return "", "", false
	}
	if name != "" && !validName(name) {
		http.Error(w, fmt.Sprintf("invalid dataset name %q", name), http.StatusBadRequest)
		return "", "", false
	}
	return tenant, name, true
}

// handleDatasetPut uploads a dataset: parse (sniffing text vs binary),
// quota-check, register, and purge prepared artifacts of any replaced
// upload so the new contents are authoritative immediately.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	tenant, name, ok := pathNames(w, r)
	if !ok {
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()
	tn := s.tenants.get(tenant)
	tn.requests.Add(1)
	if wait, ok := tn.admit(time.Now()); !ok {
		s.met.rateLimited.Add(1)
		retryAfter(w, wait)
		http.Error(w, "tenant over rate or in-flight limit", http.StatusTooManyRequests)
		return
	}
	defer tn.release()

	// The format label comes from the body's magic, as ReadHypergraph
	// sniffs it, never from the Content-Type header.
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	format := "text"
	if magic, _ := body.Peek(4); string(magic) == "CHG2" {
		format = "binary"
	}
	g, err := chgraph.ReadHypergraph(body)
	if err != nil {
		tn.failed.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("upload exceeds %d bytes", s.opt.MaxUploadBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	ds, old, err := s.registry.put(tenant, tn.lim, name, format, g)
	if err != nil {
		tn.failed.Add(1)
		s.met.uploadsRejected.Add(1)
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if old != nil {
		s.cache.purgePrefix(regPurgePrefix(tenant, name))
	}
	s.met.uploads.Add(1)
	tn.completed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(ds.info())
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	tenant, name, ok := pathNames(w, r)
	if !ok {
		return
	}
	ds, found := s.registry.lookup(tenant, name)
	if !found {
		http.Error(w, fmt.Sprintf("dataset %s/%s not registered", tenant, name), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ds.info())
}

// DatasetList is the GET /datasets/{tenant} document.
type DatasetList struct {
	Tenant     string        `json:"tenant"`
	Datasets   []DatasetInfo `json:"datasets"`
	TotalBytes int64         `json:"total_bytes"`
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	tenant, _, ok := pathNames(w, r)
	if !ok {
		return
	}
	list := DatasetList{Tenant: tenant, Datasets: []DatasetInfo{}}
	for _, ds := range s.registry.list(tenant) {
		list.Datasets = append(list.Datasets, ds.info())
		list.TotalBytes += ds.bytes
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(list)
}

// handleDatasetDelete evicts a dataset and purges every prepared artifact
// derived from it. In-flight runs that already resolved an artifact finish
// on it (copy-on-write: the pointer stays valid); subsequent runs naming
// the dataset get 400.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	tenant, name, ok := pathNames(w, r)
	if !ok {
		return
	}
	ds, found := s.registry.remove(tenant, name)
	if !found {
		http.Error(w, fmt.Sprintf("dataset %s/%s not registered", tenant, name), http.StatusNotFound)
		return
	}
	purged := s.cache.purgePrefix(regPurgePrefix(tenant, name))
	s.met.evictionsReg.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"deleted": fmt.Sprintf("%s/%s", tenant, name), "id": ds.id, "purged_artifacts": purged,
	})
}
