package obs

import "sync/atomic"

// Step indexes the four steps of the paper's §5 update pipeline. The
// vupdate algorithms time each step into Registry.StepNsByObject.
type Step uint8

// §5 pipeline steps.
const (
	// StepLocalValidate is step 1: validating the request against the
	// view-object definition (instance lookup, connection checks).
	StepLocalValidate Step = iota
	// StepPropagate is step 2: propagation within the view object
	// (island key complements flowing down to island children).
	StepPropagate
	// StepTranslate is step 3: translating the request into primitive
	// database operations under the chosen translator.
	StepTranslate
	// StepGlobalValidate is step 4: validation against the structural
	// model (foreign-key maintenance, recursive dependency repair).
	StepGlobalValidate
	// NumSteps sizes per-step metric arrays.
	NumSteps
)

// stepNames are the snapshot key fragments, indexed by Step.
var stepNames = [NumSteps]string{"local_validate", "propagate", "translate", "global_validate"}

// String implements fmt.Stringer.
func (s Step) String() string {
	if s < NumSteps {
		return stepNames[s]
	}
	return "step?"
}

// NumOpKinds sizes per-operation metric arrays; the indices align with
// vupdate.OpKind (insert, delete, replace) — asserted by a vupdate test.
const NumOpKinds = 3

// opNames are the snapshot key fragments, indexed by vupdate.OpKind.
var opNames = [NumOpKinds]string{"insert", "delete", "replace"}

// Rejection-reason slugs, indexed by vupdate.Reason. obs owns the names
// so snapshots render without importing vupdate (which imports obs); a
// vupdate test asserts Reason.String() stays aligned with this table.
var rejectReasonNames = [...]string{
	"unknown",
	"no-instance",
	"translator-policy",
	"integrity",
	"ambiguous-key",
	"conflict",
}

// NumRejectReasons sizes the rejection counter array.
const NumRejectReasons = len(rejectReasonNames)

// RejectReasonName returns the slug for a rejection-reason index
// ("unknown" for out-of-range values).
func RejectReasonName(i int) string {
	if i < 0 || i >= NumRejectReasons {
		return rejectReasonNames[0]
	}
	return rejectReasonNames[i]
}

// Label-dimension capacities for the Default registry. Small on
// purpose: labels exist to attribute cost in mixed workloads, not to
// enumerate unbounded populations; overflow collapses into OtherLabel.
const (
	// ObjectLabelCap bounds distinct view-object names.
	ObjectLabelCap = 16
	// RelationLabelCap bounds distinct relation names.
	RelationLabelCap = 64
	// EndpointLabelCap bounds distinct serving-tier endpoint names.
	EndpointLabelCap = 16
	// ShardLabelCap bounds distinct shard indices (sharded clusters).
	ShardLabelCap = 16
)

// HTTP response status classes tallied by the serving tier. Shed
// requests (admission-control 429s) land in the 4xx class and in the
// dedicated shed counter.
const (
	Status2xx = iota
	Status3xx
	Status4xx
	Status5xx
	NumStatusClasses
)

// statusClassNames are the snapshot key fragments, indexed by class.
var statusClassNames = [NumStatusClasses]string{"2xx", "3xx", "4xx", "5xx"}

// StatusClass maps an HTTP status code to its class index. Codes below
// 200 (informational; the tier never emits them) and above 599 clamp
// into the nearest class.
func StatusClass(code int) int {
	switch {
	case code < 300:
		return Status2xx
	case code < 400:
		return Status3xx
	case code < 500:
		return Status4xx
	default:
		return Status5xx
	}
}

// DefaultReadTxLagAlert is the generation lag at which a closing or
// forking ReadTx counts as stale (reldb.readtx.stale_closes /
// stale_forks). Tune with SetReadTxLagAlert; 0 disables.
const DefaultReadTxLagAlert = 64

// Registry is the engine-wide metric set. All fields are safe for
// concurrent use; the engine packages write into the package-level
// Default registry. Construct extra registries with NewRegistry (tests).
//
// Every fact is stored once. A family split by a label (object,
// relation, endpoint, shard) is stored labeled only; its aggregate is
// derived when a Snapshot is captured, as the sum over the label slots
// (the overflow slot catches names past the capacity, so the sum loses
// nothing).
type Registry struct {
	// Label dimensions. Values are interned at registration time:
	// relation names when a schema is created (reldb.NewRelation),
	// view-object names when a definition is built
	// (viewobject.NewDefinition).
	Objects   *LabelSet // "object" — view-object names
	Relations *LabelSet // "relation" — base-relation names
	Endpoints *LabelSet // "endpoint" — serving-tier route names
	Shards    *LabelSet // "shard" — shard indices of a cluster

	// reldb: transaction and snapshot metrics.
	Commits        Counter   // write transactions committed
	Rollbacks      Counter   // write transactions rolled back
	TxDoneHits     Counter   // operations attempted on a finished Tx/ReadTx
	TreeNodeCopies Counter   // storage-tree nodes copied on write (path copying)
	ReadTxBegins   Counter   // read transactions opened
	StaleCloses    Counter   // ReadTx closes at or past the lag-alert threshold
	StaleForks     Counter   // ReadTx forks at or past the lag-alert threshold
	CommitNs       Histogram // write-transaction latency, Begin→Commit
	ReadTxLag      Histogram // ReadTx generation lag observed at Close and Fork

	// reldb: the write-ahead log, by shard (a database opened without a
	// shard label is shard "0": a database is a 1-shard cluster).
	// Appends count generation advances logged (commits and DDL); the
	// fsync count lags the append count under load — that gap is group
	// commit working. Replayed counts records applied by recovery at
	// OpenDatabase.
	WALAppendsByShard     *CounterVec // records appended to the log
	WALBytesByShard       *CounterVec // bytes appended, framing included
	WALFsyncsByShard      *CounterVec // fsyncs issued (one may acknowledge many commits)
	WALCheckpointsByShard *CounterVec // checkpoints completed (snapshot + truncation)
	WALReplayed           Counter     // records replayed by recovery
	WALFsyncNs            Histogram   // fsync latency

	// reldb: the two-shard commit protocol (sharded clusters). Prepares
	// count participants entering the prepared state; commits and aborts
	// count how each participant resolved (commits + aborts == prepares
	// at quiescence, recovery resolutions included).
	CrossPrepares Counter
	CrossCommits  Counter
	CrossAborts   Counter

	// reldb: per-relation lookup cost (MatchStats attribution). Each
	// equality lookup and Select charges the relation that served it, so a
	// missing index shows up against the relation that pays for it.
	RelScanned *CounterVec // tuples visited, by relation
	RelProbes  *CounterVec // point lookups and index-bucket probes, by relation
	RelScans   *CounterVec // full-relation scan fallbacks, by relation

	// viewobject: instantiation, by view object.
	InstCallsByObject     *CounterVec   // Instantiate / InstantiateByKey calls
	InstTuplesByObject    *CounterVec   // stored tuples visited while assembling instances
	InstNodesByObject     *CounterVec   // instance nodes assembled
	InstantiateNsByObject *HistogramVec // instantiation latency
	BatchedLookups        Counter       // batched edge crossings of path walks (assembly levels, materializer patches, TraversePath)
	LevelFanOut           Histogram     // instance nodes per assembly level

	// viewobject: the materialized view-object cache (Materializer).
	// Every Materializer.Instantiate serve increments exactly one of
	// hits/misses/fallbacks; patches counts per-instance patch operations
	// (rebuilds and drops) applied while serving hits.
	MatHits      Counter   // serves answered from the patched cache
	MatMisses    Counter   // serves that built the cache cold
	MatPatches   Counter   // instances patched (rebuilt or dropped) from version diffs
	MatFallbacks Counter   // serves that re-instantiated (structural/unlocalizable change)
	MatPatchNs   Histogram // latency of diffing and patching the cache

	// vupdate: the §5 update pipeline, by view object.
	CommittedByObject *CounterVec                   // translations that committed
	RejectedByObject  *CounterVec                   // translations that rolled back with a rejection
	StepNsByObject    [NumSteps]*HistogramVec       // per-step latency
	OpsByObject       [NumOpKinds]*CounterVec       // emitted DBOps by OpKind
	RejectsByObject   [NumRejectReasons]*CounterVec // rejections by Reason

	// serve: the HTTP serving tier (penguin -serve), by endpoint.
	// Requests counts requests admitted past admission control; Shed
	// counts requests refused with a fast 429 because the in-flight bound
	// was full — so Requests + Shed is the offered load. The latency
	// histogram times admitted requests only (a shed costs microseconds
	// by design), and the status-class counters tally every response
	// written, sheds included (a shed is a 4xx).
	HTTPRequestsByEndpoint *CounterVec
	HTTPShedByEndpoint     *CounterVec
	HTTPNsByEndpoint       *HistogramVec
	HTTPStatusByEndpoint   [NumStatusClasses]*CounterVec

	// obs: the flight recorder's own accounting. Captured counts ops
	// retained as slow traces; dropped counts retained traces later
	// evicted by the recorder ring's capacity.
	SlowTraceCaptured Counter
	SlowTraceDropped  Counter

	lagAlert atomic.Int64
	recorder atomic.Pointer[Recorder]
	opSeq    atomic.Uint64 // span/trace ID allocator (trace ID = root span ID)
}

// NewRegistry creates a registry with every histogram, label dimension,
// and labeled family initialized.
func NewRegistry() *Registry {
	r := &Registry{
		Objects:   NewLabelSet("object", ObjectLabelCap),
		Relations: NewLabelSet("relation", RelationLabelCap),
		Endpoints: NewLabelSet("endpoint", EndpointLabelCap),
		Shards:    NewLabelSet("shard", ShardLabelCap),
	}
	r.CommitNs.init(DurationBounds)
	r.ReadTxLag.init(CountBounds)
	r.WALFsyncNs.init(DurationBounds)
	r.LevelFanOut.init(CountBounds)
	r.MatPatchNs.init(DurationBounds)

	r.HTTPRequestsByEndpoint = NewCounterVec(r.Endpoints)
	r.HTTPShedByEndpoint = NewCounterVec(r.Endpoints)
	r.HTTPNsByEndpoint = NewHistogramVec(r.Endpoints, HTTPDurationBounds)
	for i := range r.HTTPStatusByEndpoint {
		r.HTTPStatusByEndpoint[i] = NewCounterVec(r.Endpoints)
	}

	r.RelScanned = NewCounterVec(r.Relations)
	r.RelProbes = NewCounterVec(r.Relations)
	r.RelScans = NewCounterVec(r.Relations)

	r.WALAppendsByShard = NewCounterVec(r.Shards)
	r.WALBytesByShard = NewCounterVec(r.Shards)
	r.WALFsyncsByShard = NewCounterVec(r.Shards)
	r.WALCheckpointsByShard = NewCounterVec(r.Shards)

	r.InstCallsByObject = NewCounterVec(r.Objects)
	r.InstTuplesByObject = NewCounterVec(r.Objects)
	r.InstNodesByObject = NewCounterVec(r.Objects)
	r.InstantiateNsByObject = NewHistogramVec(r.Objects, DurationBounds)

	r.CommittedByObject = NewCounterVec(r.Objects)
	r.RejectedByObject = NewCounterVec(r.Objects)
	for i := range r.StepNsByObject {
		r.StepNsByObject[i] = NewHistogramVec(r.Objects, DurationBounds)
	}
	for i := range r.OpsByObject {
		r.OpsByObject[i] = NewCounterVec(r.Objects)
	}
	for i := range r.RejectsByObject {
		r.RejectsByObject[i] = NewCounterVec(r.Objects)
	}

	r.lagAlert.Store(DefaultReadTxLagAlert)
	return r
}

// SetReadTxLagAlert sets the generation-lag threshold at which a closing
// ReadTx counts as stale (n <= 0 disables the alert) and returns the
// previous threshold.
func (r *Registry) SetReadTxLagAlert(n int64) int64 { return r.lagAlert.Swap(n) }

// ReadTxLagAlert returns the current stale-close threshold (0 when
// disabled).
func (r *Registry) ReadTxLagAlert() int64 { return r.lagAlert.Load() }

// Default is the registry the engine packages write into.
var Default = NewRegistry()
