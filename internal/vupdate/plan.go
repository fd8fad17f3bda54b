package vupdate

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// ErrRejected wraps every policy rejection: the requested view-object
// update has no translation under the chosen translator, so the
// transaction rolls back. Use errors.Is to distinguish rejections from
// infrastructure failures.
var ErrRejected = errors.New("view-object update rejected by translator")

// OpKind identifies a primitive database operation.
type OpKind uint8

// Primitive database operations emitted by the translation algorithms.
const (
	OpInsert OpKind = iota
	OpDelete
	OpReplace
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReplace:
		return "replace"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// DBOp records one primitive database operation of a translation.
type DBOp struct {
	Kind     OpKind
	Relation string
	// Key identifies the affected tuple for deletes and replaces.
	Key reldb.Tuple
	// Tuple is the inserted or replacing tuple.
	Tuple reldb.Tuple
}

// String implements fmt.Stringer.
func (op DBOp) String() string {
	switch op.Kind {
	case OpInsert:
		return fmt.Sprintf("insert %s %s", op.Relation, op.Tuple)
	case OpDelete:
		return fmt.Sprintf("delete %s key %s", op.Relation, op.Key)
	case OpReplace:
		return fmt.Sprintf("replace %s key %s with %s", op.Relation, op.Key, op.Tuple)
	default:
		return fmt.Sprintf("%s %s", op.Kind, op.Relation)
	}
}

// Result reports a committed view-object update: the database operations
// performed, in execution order.
type Result struct {
	Ops []DBOp
}

// Count returns the number of operations of the given kind.
func (r *Result) Count(kind OpKind) int {
	n := 0
	for _, op := range r.Ops {
		if op.Kind == kind {
			n++
		}
	}
	return n
}

// String renders the operations one per line.
func (r *Result) String() string {
	lines := make([]string, len(r.Ops))
	for i, op := range r.Ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}

// Updater executes view-object updates under a translator. Without
// Hooks.Begin the updates run on the database the translator's
// definition was built over; with it, on whatever database the hook's
// transaction belongs to (one of a cluster's shards).
type Updater struct {
	T *Translator
	// Hooks, when non-nil, lets a coordinator intercept the transaction
	// lifecycle (sharding uses this to supply a pre-acquired transaction
	// and to take over the commit decision). An Updater with hooks is
	// single-use state owned by its coordinator call; the plain shared
	// Updater keeps Hooks nil.
	Hooks *TxHooks
}

// NewUpdater creates an updater for the translator.
func NewUpdater(t *Translator) *Updater { return &Updater{T: t} }

// TxHooks intercepts an update's transaction lifecycle. Begin supplies
// the write transaction instead of db.Begin() — and a preview's
// throw-away transaction instead of one over a fork of db's snapshot;
// Finish receives the translated operations after a successful
// translation and owns the commit (run neither commits nor rolls back
// when Finish is set — on a Finish error the coordinator decides the
// transaction's fate). Translation failures still roll back the
// supplied transaction inside run, exactly like the unhooked path.
type TxHooks struct {
	Begin  func() (*reldb.Tx, error)
	Finish func(tx *reldb.Tx, ops []DBOp) error
}

// session carries one in-flight update translation: the transaction, the
// op log, and bookkeeping shared by the algorithms.
type session struct {
	tr  *Translator
	def *viewobject.Definition
	g   *structural.Graph
	tx  *reldb.Tx
	op  obs.Op // the update's root span (zero when untraced)
	ops []DBOp
	// touched lists the tuples the translation inserted or replaced, in
	// order: the dependency repair of step 3 starts from them.
	touched []relTuple
	// keyMap records island key replacements: relation → encoded old key
	// → change. Step 3 propagates them, and a later peninsula pair reads
	// them. Nil until the first key replacement.
	keyMap map[string]map[string]keyChange
}

// StepProbe is a test hook invoked at the start of every §5 pipeline
// step with the step and the view-object name. The flight-recorder
// acceptance tests install one to inject latency into a chosen step;
// production never sets it, so the cost is one atomic load per step.
type StepProbe func(st obs.Step, object string)

// stepProbe is the installed probe (nil normally).
var stepProbe atomic.Pointer[StepProbe]

// SetStepProbe installs the step probe (nil removes it) and returns the
// previous one.
func SetStepProbe(p StepProbe) StepProbe {
	var prev *StepProbe
	if p == nil {
		prev = stepProbe.Swap(nil)
	} else {
		prev = stepProbe.Swap(&p)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// begin opens an update's transaction: Hooks.Begin's when set, else
// dflt's over the definition's own database.
func (u *Updater) begin(dflt func(db *reldb.Database) *reldb.Tx) (*reldb.Tx, error) {
	if u.Hooks != nil && u.Hooks.Begin != nil {
		return u.Hooks.Begin()
	}
	return dflt(u.T.Definition().Graph().Database()), nil
}

// run executes fn inside a write transaction (begin's), committing on
// success and rolling back on error. Committed updates record their
// emitted operations into the obs op counters (so the counters always
// match the returned Result); rejections record their reason. Every
// return finishes the root span, failures with an err= detail: a
// rejected or failed update is exactly the trace one wants.
func (u *Updater) run(fn func(*session) error) (*Result, error) {
	def := u.T.Definition()
	// The root span opens before Begin so the commit child (which covers
	// Begin→Commit) nests inside it even across writer-lock waits.
	op := obs.Default.StartOp("vupdate.update")
	tx, err := u.begin((*reldb.Database).Begin)
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s begin failed", def.Name))
		}
		return nil, err
	}
	s := &session{tr: u.T, def: def, g: def.Graph(), op: op, tx: tx}
	s.tx.SetTraceOp(op)
	slot := def.MetricSlot()
	if err := fn(s); err != nil {
		_ = s.tx.Rollback()
		countRejection(err, slot)
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s rejected", def.Name))
		}
		return nil, err
	}
	if u.Hooks != nil && u.Hooks.Finish != nil {
		err = u.Hooks.Finish(s.tx, s.ops)
	} else {
		err = s.tx.Commit()
	}
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("object=%s err=%v", def.Name, err))
		}
		return nil, err
	}
	obs.Default.CommittedByObject.At(slot).Inc()
	for _, dbop := range s.ops {
		if int(dbop.Kind) < obs.NumOpKinds {
			obs.Default.OpsByObject[dbop.Kind].At(slot).Inc()
		}
	}
	if op.Active() {
		op.Finish(fmt.Sprintf("object=%s ops=%d", def.Name, len(s.ops)))
	}
	return &Result{Ops: s.ops}, nil
}

// countRejection records a failed translation in the rejection counters
// under the object's label slot. Missing-tuple errors count as
// no-instance rejections even though they do not wrap ErrRejected (the
// addressed instance simply is not there); infrastructure errors are
// not counted.
func countRejection(err error, slot int) {
	if !errors.Is(err, ErrRejected) && !errors.Is(err, reldb.ErrNoSuchTuple) {
		return
	}
	reason := ReasonOf(err)
	obs.Default.RejectedByObject.At(slot).Inc()
	obs.Default.RejectsByObject[reason].At(slot).Inc()
}

// step times one §5 pipeline step into the per-step histogram and, when
// traced, emits the step as a child span of the update's root op.
func (s *session) step(st obs.Step, fn func() error) error {
	start := time.Now()
	// The probe runs inside the timed interval so injected latency shows
	// up in the step's span and histogram like real work would.
	if p := stepProbe.Load(); p != nil {
		(*p)(st, s.def.Name)
	}
	err := fn()
	dur := time.Since(start).Nanoseconds()
	obs.Default.StepNsByObject[st].At(s.def.MetricSlot()).Observe(dur)
	if s.op.Active() {
		s.op.ChildAt("vupdate.step."+st.String(), start).Finish(s.def.Name)
	}
	return err
}

func (s *session) insert(rel string, t reldb.Tuple) error {
	if err := s.tx.Insert(rel, t); err != nil {
		return err
	}
	s.ops = append(s.ops, DBOp{Kind: OpInsert, Relation: rel, Tuple: t.Clone()})
	return nil
}

func (s *session) delete(rel string, key reldb.Tuple) error {
	if _, err := s.tx.Delete(rel, key); err != nil {
		return err
	}
	s.ops = append(s.ops, DBOp{Kind: OpDelete, Relation: rel, Key: key.Clone()})
	return nil
}

func (s *session) replace(rel string, oldKey reldb.Tuple, newTuple reldb.Tuple) error {
	if _, err := s.tx.Replace(rel, oldKey, newTuple); err != nil {
		return err
	}
	s.ops = append(s.ops, DBOp{Kind: OpReplace, Relation: rel, Key: oldKey.Clone(), Tuple: newTuple.Clone()})
	return nil
}

// touch records a tuple the translation inserted or replaced.
func (s *session) touch(rel string, t reldb.Row) {
	s.touched = append(s.touched, relTuple{rel, t})
}

// relation resolves a relation inside the transaction.
func (s *session) relation(name string) (*reldb.Relation, error) {
	return s.tx.Relation(name)
}

// reject builds a translator-policy rejection (the default reason; use
// rejectAs to tag a more specific one).
func reject(format string, args ...any) error {
	return rejectAs(ReasonTranslatorPolicy, format, args...)
}

// checkInstance verifies an instance belongs to the updater's definition
// (local validation, step 1).
func (u *Updater) checkInstance(inst *viewobject.Instance) error {
	if inst == nil {
		return fmt.Errorf("vupdate: nil instance")
	}
	if inst.Definition() != u.T.Definition() {
		return fmt.Errorf("vupdate: instance is built over a definition of %s, not the %s definition the translator serves",
			inst.Definition().Name, u.T.Definition().Name)
	}
	return nil
}
