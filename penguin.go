// Package penguin is a Go implementation of the PENGUIN view-object
// system: object-based views over relational databases with principled
// update translation, reproducing Barsalou, Keller, Siambela, and
// Wiederhold, "Updating Relational Databases through Object-Based Views"
// (SIGMOD 1991).
//
// The package re-exports the public API of the implementation packages:
//
//   - the relational engine (schemas, relations, transactions, queries);
//   - the structural model (typed connections with integrity rules, §2);
//   - the view-object model (definition pipeline and instantiation, §3);
//   - update translation (dependency islands, translators, VO-CD/CI/R,
//     the definition-time dialog, §5-§6);
//   - the flat-view baseline (Keller's algorithms, §4);
//   - the RQL and OQL query languages.
//
// Quickstart:
//
//	db, g, _ := university.NewSeeded()          // Figure 1 schema + data
//	omega, _ := university.Omega(g)             // Figure 2(c) object
//	insts, _ := penguin.Instantiate(db, omega, penguin.Query{...})
//	tr, _, _ := penguin.ChooseTranslator(omega, penguin.PaperDialogAnswers())
//	res, _ := penguin.NewUpdater(tr).DeleteByKey(penguin.Tuple{penguin.String("CS345")})
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package penguin

import (
	"penguin/internal/keller"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/rql"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// Relational engine (internal/reldb).
type (
	// Database is a catalog of named relations with transactions.
	Database = reldb.Database
	// Relation is an in-memory keyed table.
	Relation = reldb.Relation
	// Schema describes a relation's attributes and primary key.
	Schema = reldb.Schema
	// Attribute is one column of a schema.
	Attribute = reldb.Attribute
	// Tuple is an ordered list of values.
	Tuple = reldb.Tuple
	// Value is a typed database value.
	Value = reldb.Value
	// Kind identifies a value's runtime type.
	Kind = reldb.Kind
	// Tx is a copy-on-write write transaction.
	Tx = reldb.Tx
	// ReadTx is a snapshot-isolated read transaction.
	ReadTx = reldb.ReadTx
	// Delta is one relation's net change in a committed transaction.
	Delta = reldb.Delta
	// DeltaBatch is every delta of one commit, in publish order.
	DeltaBatch = reldb.DeltaBatch
	// TupleChange is a same-key replacement's before and after images.
	TupleChange = reldb.TupleChange
	// Subscription is a registered consumer of the commit delta stream.
	Subscription = reldb.Subscription
	// Expr is a scalar expression over rows.
	Expr = reldb.Expr
	// ResultSet is a materialized query result.
	ResultSet = reldb.ResultSet
)

// Value kinds.
const (
	KindNull   = reldb.KindNull
	KindInt    = reldb.KindInt
	KindFloat  = reldb.KindFloat
	KindString = reldb.KindString
	KindBool   = reldb.KindBool
)

// DefaultDeltaBuffer is the delta-subscription queue capacity used when
// Database.Subscribe is called with buffer <= 0.
const DefaultDeltaBuffer = reldb.DefaultDeltaBuffer

// Durability (write-ahead log + checkpoints, DESIGN.md §13).
type (
	// OpenOptions tunes a durable database's sync and checkpoint policy.
	OpenOptions = reldb.OpenOptions
	// SyncMode is the WAL fsync policy for committed transactions.
	SyncMode = reldb.SyncMode
)

// WAL sync modes.
const (
	// SyncCommit fsyncs (group-batched) before Commit returns.
	SyncCommit = reldb.SyncCommit
	// SyncInterval fsyncs on a background ticker.
	SyncInterval = reldb.SyncInterval
	// SyncNone never fsyncs explicitly; durability is best-effort.
	SyncNone = reldb.SyncNone
)

// Durability errors.
var (
	// ErrSnapshotCorrupt reports a checkpoint snapshot that fails its
	// integrity checks.
	ErrSnapshotCorrupt = reldb.ErrSnapshotCorrupt
	// ErrWALCorrupt reports log damage recovery refuses to replay past.
	ErrWALCorrupt = reldb.ErrWALCorrupt
	// ErrDatabaseClosed reports use of a closed durable database.
	ErrDatabaseClosed = reldb.ErrDatabaseClosed
	// ErrNotDurable reports a durability operation on an in-memory
	// database.
	ErrNotDurable = reldb.ErrNotDurable
)

// Value constructors and helpers.
var (
	NewDatabase = reldb.NewDatabase
	// OpenDatabase opens (or creates) a durable database in a data
	// directory, replaying the newest snapshot plus the WAL tail.
	OpenDatabase = reldb.OpenDatabase
	// OpenDatabaseWith is OpenDatabase with explicit OpenOptions.
	OpenDatabaseWith = reldb.OpenDatabaseWith
	NewSchema        = reldb.NewSchema
	Null             = reldb.Null
	Int              = reldb.Int
	Float            = reldb.Float
	String           = reldb.String
	Bool             = reldb.Bool
	Eq               = reldb.Eq
)

// Structural model (internal/structural, §2).
type (
	// Connection is a typed edge of the structural schema.
	Connection = structural.Connection
	// ConnType is the connection type: ownership, reference, or subset.
	ConnType = structural.ConnType
	// Graph is the structural schema of a database.
	Graph = structural.Graph
	// Integrity enforces the structural model's rules.
	Integrity = structural.Integrity
	// Violation is one integrity failure found by an audit.
	Violation = structural.Violation
)

// Connection types (Definitions 2.2-2.4).
const (
	Ownership = structural.Ownership
	Reference = structural.Reference
	Subset    = structural.Subset
)

// NewGraph creates an empty structural schema over a database.
var NewGraph = structural.NewGraph

// View-object model (internal/viewobject, §3).
type (
	// Definition is a validated view object ω.
	Definition = viewobject.Definition
	// Node is one projection in a view object's tree.
	Node = viewobject.Node
	// Metric is the information metric of the definition pipeline.
	Metric = viewobject.Metric
	// Subgraph is the relevant subgraph for a pivot (Figure 2a).
	Subgraph = viewobject.Subgraph
	// Tree is the expanded tree of projections (Figure 2b).
	Tree = viewobject.Tree
	// Instance is a hierarchical view-object instance.
	Instance = viewobject.Instance
	// InstNode is one component of an instance.
	InstNode = viewobject.InstNode
	// Query is a declarative object query.
	Query = viewobject.Query
	// NodePred is an existential component predicate.
	NodePred = viewobject.NodePred
	// CountCond is a component cardinality condition.
	CountCond = viewobject.CountCond
	// Materializer keeps a view object's instances materialized and
	// patched from the diff of relation versions.
	Materializer = viewobject.Materializer
)

// View-object pipeline entry points.
var (
	DefaultMetric    = viewobject.DefaultMetric
	ExtractSubgraph  = viewobject.ExtractSubgraph
	BuildTree        = viewobject.BuildTree
	Define           = viewobject.Define
	NewDefinition    = viewobject.NewDefinition
	NewInstance      = viewobject.NewInstance
	Instantiate      = viewobject.Instantiate
	InstantiateByKey = viewobject.InstantiateByKey
	// Materialized view objects: cached instances kept fresh from the
	// diff of relation versions, falling back to full instantiation when
	// a change cannot be localized.
	NewMaterializer         = viewobject.NewMaterializer
	MaterializerFor         = viewobject.MaterializerFor
	MaterializedInstantiate = viewobject.MaterializedInstantiate
)

// Update translation (internal/vupdate, §5-§6).
type (
	// Topology classifies a view object's nodes for update translation.
	Topology = vupdate.Topology
	// NodeClass is a node's update class (pivot, island, peninsula, ...).
	NodeClass = vupdate.NodeClass
	// Translator is the update-translation policy chosen at definition
	// time.
	Translator = vupdate.Translator
	// IslandPolicy configures key replacements inside the island.
	IslandPolicy = vupdate.IslandPolicy
	// OutsidePolicy configures insertions/replacements outside it.
	OutsidePolicy = vupdate.OutsidePolicy
	// PeninsulaPolicy configures deletion-time peninsula handling.
	PeninsulaPolicy = vupdate.PeninsulaPolicy
	// Updater executes view-object updates under a translator.
	Updater = vupdate.Updater
	// UpdateResult reports the operations a translation performed.
	UpdateResult = vupdate.Result
	// DBOp is one primitive database operation.
	DBOp = vupdate.DBOp
	// DialogQuestion is one yes/no question of the §6 dialog.
	DialogQuestion = vupdate.Question
	// DialogTranscript records an asked/answered dialog run.
	DialogTranscript = vupdate.Transcript
	// Answerer supplies dialog answers.
	Answerer = vupdate.Answerer
	// ScriptedAnswerer answers from a map (recorded dialogs, tests).
	ScriptedAnswerer = vupdate.ScriptedAnswerer
	// InteractiveAnswerer conducts the dialog on a terminal.
	InteractiveAnswerer = vupdate.InteractiveAnswerer
)

// Update-translation entry points.
var (
	Analyze                     = vupdate.Analyze
	NewTranslator               = vupdate.NewTranslator
	PermissiveTranslator        = vupdate.PermissiveTranslator
	NewUpdater                  = vupdate.NewUpdater
	ChooseTranslator            = vupdate.ChooseTranslator
	ChooseReplacementTranslator = vupdate.ChooseReplacementTranslator
	PaperDialogAnswers          = vupdate.PaperDialogAnswers
	// LoadTranslator re-binds policies saved with Translator.SavePolicies.
	LoadTranslator = vupdate.LoadTranslator
)

// ErrRejected wraps every translator rejection.
var ErrRejected = vupdate.ErrRejected

// OpKind is the kind of a primitive database operation.
type OpKind = vupdate.OpKind

// Primitive database operations emitted by the translation algorithms.
const (
	OpInsert  = vupdate.OpInsert
	OpDelete  = vupdate.OpDelete
	OpReplace = vupdate.OpReplace
)

// Flat-view baseline (internal/keller, §4).
type (
	// FlatView is a select-project-join relational view.
	FlatView = keller.View
	// FlatJoin adds one relation to a flat view's query graph.
	FlatJoin = keller.Join
	// FlatTranslator is Keller's flat-view update translator.
	FlatTranslator = keller.Translator
)

// Flat-view entry points.
var (
	NewFlatView              = keller.NewView
	PermissiveFlatTranslator = keller.PermissiveTranslator
)

// Query languages.
var (
	// ExecRQL parses and executes one RQL statement.
	ExecRQL = rql.Exec
	// ParseRQLExpr parses a scalar/boolean RQL expression.
	ParseRQLExpr = rql.ParseExpr
	// ParseOQL parses an object query for a definition.
	ParseOQL = oql.Parse
	// QueryOQL parses and runs an object query.
	QueryOQL = oql.Query
)
