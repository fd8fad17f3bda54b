package vupdate

import (
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// Preview variants translate a view-object update and report the
// database operations it would perform, then roll the transaction back —
// the database is untouched. They make the translation inspectable: a
// DBA (or a test) can see exactly how a request maps to relational
// operations under the chosen translator before committing to it.

// runPreview executes fn inside a transaction over a private fork of a
// consistent read snapshot (or Hooks.Begin's transaction), returning the
// operations fn performed and rolling the transaction back. The what-if
// reads see exactly the pinned committed state; the live database is
// untouched and its writer lock is never taken, so previews run
// concurrently with real update traffic.
func (u *Updater) runPreview(fn func(*session) error) (*Result, error) {
	tx, err := u.begin(func(db *reldb.Database) *reldb.Tx {
		rtx := db.BeginRead()
		defer rtx.Close()
		return rtx.Fork().Begin()
	})
	if err != nil {
		return nil, err
	}
	def := u.T.Definition()
	s := &session{tr: u.T, def: def, g: def.Graph(), tx: tx}
	err = fn(s)
	ops := s.ops
	_ = s.tx.Rollback()
	if err != nil {
		return nil, err
	}
	return &Result{Ops: ops}, nil
}

// PreviewDeleteByKey translates a complete deletion without executing it.
func (u *Updater) PreviewDeleteByKey(key reldb.Tuple) (*Result, error) {
	return u.runPreview(func(s *session) error {
		inst, ok, err := viewobject.InstantiateByKey(s.tx, s.def, key)
		if err != nil {
			return err
		}
		if !ok {
			return rejectAs(ReasonNoInstance, "vupdate: %s: no instance with key %s", s.def.Name, key)
		}
		return s.deleteInstance(inst)
	})
}

// PreviewInsertInstance translates a complete insertion without executing
// it.
func (u *Updater) PreviewInsertInstance(inst *viewobject.Instance) (*Result, error) {
	if err := u.checkInstance(inst); err != nil {
		return nil, err
	}
	return u.runPreview(func(s *session) error {
		return s.insertInstance(inst)
	})
}

// PreviewReplaceInstance translates a replacement without executing it.
// Only the frozen end-to-end benchmark (benchmark/) calls it; it goes
// with ReplaceInstance when that benchmark changes.
func (u *Updater) PreviewReplaceInstance(oldInst, newInst *viewobject.Instance) (*Result, error) {
	if err := u.checkInstance(oldInst); err != nil {
		return nil, err
	}
	if err := u.checkInstance(newInst); err != nil {
		return nil, err
	}
	return u.runPreview(func(s *session) error {
		return s.replaceInstance(oldInst, newInst)
	})
}
