package vupdate

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
)

// IslandPolicy answers, for one dependency-island node, the replacement
// questions of the §6 dialog.
type IslandPolicy struct {
	// AllowKeyModification permits the key of a tuple of this relation to
	// be modified during replacements (first island question).
	AllowKeyModification bool
	// AllowDBKeyReplace permits replacing the key of the corresponding
	// database tuple (second island question).
	AllowDBKeyReplace bool
	// AllowMergeWithExisting permits deleting the old database tuple and
	// replacing an existing tuple carrying the new key (third island
	// question — the paper's "delete the old database tuple, and replace
	// it with an existing tuple with matching key").
	AllowMergeWithExisting bool
}

// OutsidePolicy answers, for one non-island node, the insertion/replacement
// questions of the §6 dialog.
type OutsidePolicy struct {
	// Modifiable permits this relation to be modified during insertions
	// or replacements at all. When false the two sub-permissions are
	// irrelevant (footnote 5 of the paper).
	Modifiable bool
	// AllowInsert permits inserting a new tuple.
	AllowInsert bool
	// AllowModifyExisting permits replacing an existing tuple.
	AllowModifyExisting bool
}

// PeninsulaAction selects how a complete deletion updates the tuples of a
// referencing peninsula that pointed at deleted island tuples ("perform a
// replacement on the foreign key of each matching tuple", §5.1). The
// replacement value is translator configuration: the paper leaves it to
// the DBA-chosen translator.
type PeninsulaAction uint8

// Peninsula actions.
const (
	// PeninsulaDeleteTuple removes the referencing tuples. It is the
	// default when the foreign key participates in the peninsula's
	// primary key (a null or default value would corrupt the key).
	PeninsulaDeleteTuple PeninsulaAction = iota
	// PeninsulaSetNull assigns null to the referencing attributes.
	PeninsulaSetNull
	// PeninsulaReplaceDefault assigns the policy's default values to the
	// referencing attributes.
	PeninsulaReplaceDefault
	// PeninsulaRestrict rejects the deletion (the transaction rolls
	// back, §5.1).
	PeninsulaRestrict
)

// String implements fmt.Stringer.
func (a PeninsulaAction) String() string {
	switch a {
	case PeninsulaDeleteTuple:
		return "delete-tuple"
	case PeninsulaSetNull:
		return "set-null"
	case PeninsulaReplaceDefault:
		return "replace-default"
	case PeninsulaRestrict:
		return "restrict"
	default:
		return fmt.Sprintf("peninsulaaction(%d)", uint8(a))
	}
}

// PeninsulaPolicy configures deletion-time handling of one referencing
// peninsula.
type PeninsulaPolicy struct {
	// AllowUpdateOnDelete permits the system to touch the peninsula when
	// an instance is deleted; when false, deletions whose island tuples
	// are referenced roll back.
	AllowUpdateOnDelete bool
	// OnDelete is the chosen action.
	OnDelete PeninsulaAction
	// Default supplies the replacement values for PeninsulaReplaceDefault,
	// one per referencing attribute of the peninsula's reference
	// connection into the island.
	Default reldb.Tuple
}

// Translator is the update-translation policy for one view object, fixed
// at definition time (by dialog or programmatically) and applied to every
// subsequent update request. The zero policy rejects everything; use
// PermissiveTranslator or ChooseTranslator to build one.
type Translator struct {
	topo *Topology

	// AllowInsertion, AllowDeletion, and AllowReplacement gate the three
	// complete update operations.
	AllowInsertion   bool
	AllowDeletion    bool
	AllowReplacement bool

	// Island configures replacement handling per island node ID.
	Island map[string]IslandPolicy
	// Outside configures insertion/replacement handling per non-island
	// node ID.
	Outside map[string]OutsidePolicy
	// Peninsula configures deletion handling per peninsula node ID.
	Peninsula map[string]PeninsulaPolicy

	// RepairInserts permits global integrity maintenance to insert
	// dependency tuples into relations outside the view object (the
	// recursive repair of §5.2). When false, an update needing such a
	// repair rolls back.
	RepairInserts bool
}

// NewTranslator creates a translator for def with everything disallowed.
func NewTranslator(def *viewobject.Definition) *Translator {
	topo := Analyze(def)
	tr := &Translator{
		topo:      topo,
		Island:    make(map[string]IslandPolicy),
		Outside:   make(map[string]OutsidePolicy),
		Peninsula: make(map[string]PeninsulaPolicy),
	}
	return tr
}

// PermissiveTranslator creates the translator the §6 dialog's mostly-YES
// answers produce: every operation allowed, island keys replaceable (but
// not merged with existing tuples), outside relations insertable and
// modifiable, peninsulas updatable on delete with the key-aware default
// action, and global repair insertions permitted.
func PermissiveTranslator(def *viewobject.Definition) *Translator {
	tr := NewTranslator(def)
	tr.AllowInsertion = true
	tr.AllowDeletion = true
	tr.AllowReplacement = true
	tr.RepairInserts = true
	for _, id := range tr.topo.Island() {
		tr.Island[id] = IslandPolicy{
			AllowKeyModification:   true,
			AllowDBKeyReplace:      true,
			AllowMergeWithExisting: false, // the dialog's one NO
		}
	}
	for _, id := range tr.topo.NonIsland() {
		tr.Outside[id] = OutsidePolicy{Modifiable: true, AllowInsert: true, AllowModifyExisting: true}
	}
	for _, id := range tr.topo.Peninsulas() {
		tr.Peninsula[id] = PeninsulaPolicy{
			AllowUpdateOnDelete: true,
			OnDelete:            tr.defaultPeninsulaAction(id),
		}
	}
	return tr
}

// defaultPeninsulaAction is keyAwareAction for a peninsula node.
func (tr *Translator) defaultPeninsulaAction(nodeID string) PeninsulaAction {
	def := tr.topo.Def
	n, _ := def.Node(nodeID)
	return keyAwareAction(def.Graph(), def.NodeSchema(n))
}

// keyAwareAction is the deletion action for the tuples of schema's
// relation that reference a deleted tuple, where no policy names one:
// delete them when a referencing attribute participates in their key
// (null would corrupt the key), set the referencing attributes to null
// otherwise.
func keyAwareAction(g *structural.Graph, schema *reldb.Schema) PeninsulaAction {
	for _, c := range g.Outgoing(schema.Name()) {
		if c.Type != structural.Reference {
			continue
		}
		for _, a := range c.FromAttrs {
			if schema.IsKeyName(a) {
				return PeninsulaDeleteTuple
			}
		}
	}
	return PeninsulaSetNull
}

// Definition returns the view object this translator serves.
func (tr *Translator) Definition() *viewobject.Definition { return tr.topo.Def }

// Topology returns the island/peninsula analysis.
func (tr *Translator) Topology() *Topology { return tr.topo }

// mayInsert answers the policy question "may this update insert tuples
// into p's node?": inside the dependency island always, outside it when
// the node's outside policy makes the relation modifiable and allows
// new tuples.
func (s *session) mayInsert(p *nodePlan) error {
	if pol := s.tr.Outside[p.node.ID]; p.island || pol.Modifiable && pol.AllowInsert {
		return nil
	}
	return reject("vupdate: %s: the application is not allowed to insert tuples in %s",
		s.def.Name, p.node.Relation)
}

// mayModify answers the policy question "may this update modify tuples
// of p's node?": inside the dependency island always, outside it when
// the node's outside policy makes the relation modifiable and allows
// replacing existing tuples.
func (s *session) mayModify(p *nodePlan) error {
	if pol := s.tr.Outside[p.node.ID]; p.island || pol.Modifiable && pol.AllowModifyExisting {
		return nil
	}
	return reject("vupdate: %s: the application is not allowed to modify tuples of %s",
		s.def.Name, p.node.Relation)
}

// peninsulaPolicy returns the peninsula policy for a node (zero = restrict).
func (tr *Translator) peninsulaPolicy(nodeID string) PeninsulaPolicy {
	p, ok := tr.Peninsula[nodeID]
	if !ok {
		return PeninsulaPolicy{AllowUpdateOnDelete: false, OnDelete: PeninsulaRestrict}
	}
	return p
}
