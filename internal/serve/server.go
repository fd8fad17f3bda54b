package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// Endpoint labels for the penguin.http.* metric families. They fit
// comfortably inside obs.EndpointLabelCap.
const (
	epList    = "list"
	epQuery   = "query"
	epGet     = "get"
	epDelete  = "delete"
	epInsert  = "insert"
	epReplace = "replace"
)

// maxBodyBytes bounds update request bodies; a stuck or malicious
// client cannot make the server buffer an unbounded document.
const maxBodyBytes = 8 << 20

// Config describes one serving tier.
type Config struct {
	// Cluster is the backend (required), of one shard (a plain database)
	// or more: the tier publishes exactly its registered objects. Queries
	// fan out across every shard and merge in pivot-key order, point
	// reads go to the key's home shard, and updates route through the
	// coordinator (a local commit, or the cross-shard one when replicas
	// are touched). An object registered with a fully restrictive
	// translator serves reads only (its update endpoints answer 405).
	Cluster *shard.Cluster
	// MaxReadInFlight and MaxWriteInFlight bound concurrently admitted
	// requests per class; arrivals beyond the bound are shed with 429
	// instead of queueing (DESIGN.md §14). Zero means the defaults
	// (64 reads, 16 writes); negative disables admission control.
	MaxReadInFlight  int
	MaxWriteInFlight int
	// Reg receives the penguin.http.* metrics (obs.Default when nil).
	Reg *obs.Registry
}

// Server is the HTTP serving tier: a handler tree over Config plus the
// admission-control state. Create with New, mount Handler, or start a
// listener in one call with Start.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	reads  chan struct{} // admission semaphores; nil = unbounded
	writes chan struct{}
	mux    *http.ServeMux
}

// New builds a server for the configuration.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, reg: cfg.Reg}
	if s.reg == nil {
		s.reg = obs.Default
	}
	s.reads = semaphore(cfg.MaxReadInFlight, 64)
	s.writes = semaphore(cfg.MaxWriteInFlight, 16)
	// Intern the endpoint labels now: With resolves by lookup only, so
	// a label never interned would fold into the "other" slot.
	for _, ep := range []string{epList, epQuery, epGet, epDelete, epInsert, epReplace} {
		s.reg.Endpoints.Intern(ep)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /objects", s.admit(epList, s.reads, s.handleList))
	mux.HandleFunc("GET /objects/{name}", s.admit(epQuery, s.reads, s.handleQuery))
	mux.HandleFunc("GET /objects/{name}/{key...}", s.admit(epGet, s.reads, s.handleGet))
	// ServeMux wildcards cannot express the "{name}:verb" suffix, so
	// update routes match the whole segment and split on ':' manually.
	mux.HandleFunc("POST /objects/{target}", s.dispatchUpdate)
	// The serving tier carries the debug surface of a standalone
	// metrics listener, so one port serves both traffic and scrapes.
	mux.Handle("GET /metrics", obs.Handler())
	mux.Handle("/debug/", obs.DebugMux())
	s.mux = mux
	return s
}

// semaphore builds an admission semaphore of capacity n (def when n is
// zero); nil — unbounded — when n is negative.
func semaphore(n, def int) chan struct{} {
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = def
	}
	return make(chan struct{}, n)
}

// Handler returns the server's handler tree. Wrap it in
// obs.HardenedServer (Start does) rather than a bare http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the serving tier on addr with the hardened listener
// (header/read/idle timeouts, graceful Shutdown).
func Start(addr string, cfg Config) (*Server, *obs.HTTPServer, error) {
	s := New(cfg)
	hs, err := obs.ServeHandler(addr, s.Handler())
	if err != nil {
		return nil, nil, err
	}
	return s, hs, nil
}

// admit wraps an endpoint handler with admission control and the
// penguin.http.* instrumentation. The semaphore is tried, never waited
// on: under overload the cheap answer is an immediate 429 the client
// can back off from, not a queue that converts overload into latency
// for everyone behind it. Shed requests count in penguin.http.shed and
// the 4xx status family but not in penguin.http.requests — "requests"
// means admitted work, so its latency histogram and the shed counter
// partition arrivals cleanly.
func (s *Server) admit(endpoint string, sem chan struct{}, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				s.shed(endpoint, w)
				return
			}
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ns := time.Since(start).Nanoseconds()
		s.reg.HTTPRequestsByEndpoint.With(endpoint).Inc()
		s.reg.HTTPNsByEndpoint.With(endpoint).Observe(ns)
		s.reg.HTTPStatusByEndpoint[obs.StatusClass(sw.status)].With(endpoint).Inc()
	}
}

// shed answers an over-capacity arrival: fast 429, Retry-After hint,
// shed + 4xx counters.
func (s *Server) shed(endpoint string, w http.ResponseWriter) {
	s.reg.HTTPShedByEndpoint.With(endpoint).Inc()
	s.reg.HTTPStatusByEndpoint[obs.Status4xx].With(endpoint).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprintf(w, `{"error":"overloaded","endpoint":%q}`+"\n", endpoint)
}

// statusWriter records the status code an endpoint handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// maxPooledBuf caps the response buffers the pool keeps: one large query
// must not pin its megabytes for the life of the process.
const maxPooledBuf = 1 << 20

// bufPool holds the buffers GET and query responses are encoded into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// sendBody encodes a whole 200 response into a pooled buffer and writes
// it in one Write, with its Content-Length.
func sendBody(w http.ResponseWriter, encode func(dst []byte) []byte) {
	bp := bufPool.Get().(*[]byte)
	body := encode((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away is not the server's error
	if cap(body) <= maxPooledBuf {
		*bp = body[:0]
		bufPool.Put(bp)
	}
}

// writeJSON sends v with the given status: the cold, small bodies
// (errors, the object listing, update acknowledgements). Instances go
// out through AppendInstance and sendBody.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError sends {"error": msg}.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// updateStatus maps an update-translation failure to a status code: a
// rejection by the §5 pipeline (carrying a reason) and a replacement the
// shard router refuses to re-home are the client's conflict, anything
// else the server's fault.
func updateStatus(err error) int {
	if vupdate.ReasonOf(err) != vupdate.ReasonUnknown {
		return http.StatusConflict
	}
	if errors.Is(err, shard.ErrCrossShardMove) {
		return http.StatusConflict
	}
	if errors.Is(err, reldb.ErrNoSuchRelation) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// object resolves {name}; a miss answers 404 and returns nil. The
// resolved definition is shard 0's copy — every shard's definition has
// the identical shape, so it serves for parsing queries, keys, and
// documents (reads against a specific shard use that shard's own copy
// inside the cluster).
func (s *Server) object(w http.ResponseWriter, name string) *viewobject.Definition {
	def, err := s.cfg.Cluster.Object(name, 0)
	if err != nil {
		writeError(w, http.StatusNotFound, "no object named %q", name)
		return nil
	}
	return def
}

// handleList answers GET /objects: every object's shape in name order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type objInfo struct {
		Name       string   `json:"name"`
		Pivot      string   `json:"pivot"`
		Key        []string `json:"key"`
		Complexity int      `json:"complexity"`
		Updatable  bool     `json:"updatable"`
	}
	c := s.cfg.Cluster
	names := c.Objects() // sorted: the API's order is not a map's
	infos := make([]objInfo, 0, len(names))
	for _, name := range names {
		def, err := c.Object(name, 0)
		if err != nil {
			continue
		}
		infos = append(infos, objInfo{
			Name:       name,
			Pivot:      def.Pivot(),
			Key:        def.Key(),
			Complexity: def.Complexity(),
			Updatable:  c.Updatable(name),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"objects": infos})
}

// handleQuery answers GET /objects/{name}[?q=OQL]: the instances the
// (optionally filtered) object query selects, in pivot-key order. The
// query fans out to every shard's snapshot and the merged result
// carries the cluster generation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	def := s.object(w, name)
	if def == nil {
		return
	}
	q, err := oql.Parse(def, r.URL.Query().Get("q"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	insts, err := s.cfg.Cluster.Instantiate(name, q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "instantiate: %v", err)
		return
	}
	generation := s.cfg.Cluster.Generation()
	sendBody(w, func(dst []byte) []byte { return appendQuery(dst, insts, generation) })
}

// appendQuery appends a query response: the envelope's fields in the
// sorted order encoding/json gave the map it used to be, the instances'
// documents between them, and the encoder's closing newline.
func appendQuery(dst []byte, insts []*viewobject.Instance, generation uint64) []byte {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(len(insts)), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	dst = append(dst, `,"instances":[`...)
	for i, inst := range insts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendInstance(dst, inst)
	}
	return append(dst, "]}\n"...)
}

// handleGet answers GET /objects/{name}/{key...}: one instance by pivot
// key, key attributes as slash-separated path segments. The read goes
// to the key's home shard alone.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	def := s.object(w, name)
	if def == nil {
		return
	}
	key, err := pathKey(def, r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad key: %v", err)
		return
	}
	inst, ok, err := s.cfg.Cluster.InstantiateByKey(name, key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "instantiate: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no %s instance with that key", name)
		return
	}
	sendBody(w, func(dst []byte) []byte { return append(AppendInstance(dst, inst), '\n') })
}

// pathKey parses slash-separated path segments into a typed pivot key,
// against the pivot schema the definition caches (no database lock).
func pathKey(def *viewobject.Definition, raw string) (reldb.Tuple, error) {
	schema := def.NodeSchema(def.Root())
	keyIdx := schema.Key()
	segs := strings.Split(raw, "/")
	if raw == "" || len(segs) != len(keyIdx) {
		return nil, fmt.Errorf("key of %s has %d attribute(s), got %d", def.Pivot(), len(keyIdx), len(segs))
	}
	key := make(reldb.Tuple, len(keyIdx))
	for i, seg := range segs {
		v, err := reldb.ParseValue(schema.Attr(keyIdx[i]).Type, seg)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

// bodyKey decodes a JSON key array into a typed pivot key, checking
// arity against the pivot relation's key.
func bodyKey(def *viewobject.Definition, raw []any) (reldb.Tuple, error) {
	if want := len(def.NodeSchema(def.Root()).Key()); len(raw) != want {
		return nil, fmt.Errorf("key of %s has %d attribute(s), got %d", def.Pivot(), want, len(raw))
	}
	return DecodeTuple(raw)
}

// updateRequest is the body of every POST /objects/{name}:verb.
type updateRequest struct {
	// Key names the existing instance (delete, replace).
	Key []any `json:"key"`
	// Instance is the desired document (insert: the new instance;
	// replace: the replacement).
	Instance map[string]any `json:"instance"`
}

// dispatchUpdate routes POST /objects/{name}:{verb}. The verb picks the
// §5 translation: delete → VO-CD, insert → VO-CI, replace → VO-R.
func (s *Server) dispatchUpdate(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	name, verb, ok := strings.Cut(target, ":")
	if !ok {
		writeError(w, http.StatusMethodNotAllowed, "POST needs a verb: /objects/%s:delete|insert|replace", target)
		return
	}
	var h func(http.ResponseWriter, string, *viewobject.Definition, updateRequest)
	switch verb {
	case "delete":
		h = s.handleDelete
	case "insert":
		h = s.handleInsert
	case "replace":
		h = s.handleReplace
	default:
		writeError(w, http.StatusNotFound, "unknown update verb %q (want delete, insert, or replace)", verb)
		return
	}
	endpoint := verb
	s.admit(endpoint, s.writes, func(w http.ResponseWriter, r *http.Request) {
		def := s.object(w, name)
		if def == nil {
			return
		}
		if !s.cfg.Cluster.Updatable(name) {
			writeError(w, http.StatusMethodNotAllowed, "object %q is read-only (no translator configured)", name)
			return
		}
		// The body is exactly one envelope: an unknown field or anything
		// but whitespace after the object is refused, not ignored.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.UseNumber()
		dec.DisallowUnknownFields()
		var req updateRequest
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			writeError(w, http.StatusBadRequest, "bad request body: data after the request object")
			return
		}
		h(w, name, def, req)
	})(w, r)
}

// updateResponse acknowledges a committed update. Generation is the
// commit generation the update published (the sum over the shards); a
// client that received this response can expect the state to survive a
// crash (SyncCommit makes the WAL append — and, cross-shard, the commit
// decision on every participant — durable before the updater returns).
func (s *Server) updateResponse(w http.ResponseWriter, res *vupdate.Result) {
	ops := make([]string, len(res.Ops))
	for i, op := range res.Ops {
		ops[i] = op.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ops":        ops,
		"count":      len(ops),
		"generation": s.cfg.Cluster.Generation(),
	})
}

// handleDelete performs complete deletion (VO-CD) by pivot key.
func (s *Server) handleDelete(w http.ResponseWriter, name string, def *viewobject.Definition, req updateRequest) {
	key, err := bodyKey(def, req.Key)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad key: %v", err)
		return
	}
	res, err := s.cfg.Cluster.DeleteByKey(name, key)
	if err != nil {
		writeError(w, updateStatus(err), "delete rejected: %v", err)
		return
	}
	s.updateResponse(w, res)
}

// handleInsert performs complete insertion (VO-CI) of the document.
func (s *Server) handleInsert(w http.ResponseWriter, name string, def *viewobject.Definition, req updateRequest) {
	if req.Instance == nil {
		writeError(w, http.StatusBadRequest, "insert needs an \"instance\" document")
		return
	}
	inst, err := InstanceFromDoc(def, req.Instance)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad instance: %v", err)
		return
	}
	// The instance was parsed against shard 0's definition; the
	// coordinator re-homes it onto the pivot key's shard.
	res, err := s.cfg.Cluster.InsertInstance(name, inst)
	if err != nil {
		writeError(w, updateStatus(err), "insert rejected: %v", err)
		return
	}
	s.updateResponse(w, res)
}

// handleReplace performs replacement (VO-R): the server instantiates
// the current instance under the key, builds the desired instance from
// the document, and hands both to the translator.
func (s *Server) handleReplace(w http.ResponseWriter, name string, def *viewobject.Definition, req updateRequest) {
	if req.Instance == nil {
		writeError(w, http.StatusBadRequest, "replace needs an \"instance\" document")
		return
	}
	key, err := bodyKey(def, req.Key)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad key: %v", err)
		return
	}
	oldInst, ok, err := s.cfg.Cluster.InstantiateByKey(name, key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "instantiate: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no %s instance with that key", name)
		return
	}
	newInst, err := InstanceFromDoc(def, req.Instance)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad instance: %v", err)
		return
	}
	res, err := s.cfg.Cluster.ReplaceInstance(name, oldInst, newInst)
	if err != nil {
		writeError(w, updateStatus(err), "replace rejected: %v", err)
		return
	}
	s.updateResponse(w, res)
}
