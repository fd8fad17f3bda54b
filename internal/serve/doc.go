package serve

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// Instance documents: projected attribute name → value, child node ID →
// array of child documents, with every value in the codec's wire form,
// so a document fetched from GET /objects/{name}/{key} can be edited and
// sent back through POST /objects/{name}:replace without any value
// changing identity along the way. This is the only instance ↔ document
// codec: the facade's InstanceDoc / InstanceFromDoc are these functions.

// InstanceDoc converts an instance to its JSON-ready document.
func InstanceDoc(inst *viewobject.Instance) map[string]any {
	return nodeDoc(inst.Definition(), inst.Root())
}

func nodeDoc(def *viewobject.Definition, in *viewobject.InstNode) map[string]any {
	n := in.Node()
	schema := def.NodeSchema(n)
	tuple := in.Tuple()
	out := make(map[string]any, len(n.Attrs)+len(n.Children))
	for _, attr := range n.Attrs {
		idx, ok := schema.AttrIndex(attr)
		if !ok {
			continue
		}
		out[attr] = EncodeValue(tuple[idx])
	}
	for _, child := range n.Children {
		kids := in.Children(child.ID)
		docs := make([]any, len(kids))
		for i, k := range kids {
			docs[i] = nodeDoc(def, k)
		}
		out[child.ID] = docs
	}
	return out
}

// InstanceFromDoc builds an instance of def from a decoded document of
// the shape InstanceDoc produces. Attributes absent from a document
// become null; field names that are neither projected attributes nor
// child node IDs are rejected, so a typo'd attribute fails loudly
// instead of silently nulling the real one.
func InstanceFromDoc(def *viewobject.Definition, doc map[string]any) (*viewobject.Instance, error) {
	tuple, err := docTuple(def, def.Root(), doc)
	if err != nil {
		return nil, err
	}
	inst, err := viewobject.NewInstance(def, tuple)
	if err != nil {
		return nil, err
	}
	if err := fillChildren(def, inst.Root(), doc); err != nil {
		return nil, err
	}
	return inst, nil
}

func docTuple(def *viewobject.Definition, n *viewobject.Node, doc map[string]any) (reldb.Tuple, error) {
	schema := def.NodeSchema(n)
	childIDs := make(map[string]bool, len(n.Children))
	for _, c := range n.Children {
		childIDs[c.ID] = true
	}
	tuple := make(reldb.Tuple, schema.Arity())
	for field, raw := range doc {
		if childIDs[field] {
			continue
		}
		idx, ok := schema.AttrIndex(field)
		if !ok {
			return nil, fmt.Errorf("node %s: field %q is neither an attribute of %s nor a child node",
				n.ID, field, n.Relation)
		}
		v, err := DecodeValue(raw)
		if err != nil {
			return nil, fmt.Errorf("node %s: field %q: %w", n.ID, field, err)
		}
		tuple[idx] = v
	}
	return tuple, nil
}

func fillChildren(def *viewobject.Definition, in *viewobject.InstNode, doc map[string]any) error {
	for _, child := range in.Node().Children {
		raw, ok := doc[child.ID]
		if !ok || raw == nil {
			continue
		}
		list, ok := raw.([]any)
		if !ok {
			return fmt.Errorf("node %s: child %s must be an array", in.Node().ID, child.ID)
		}
		for _, item := range list {
			childDoc, ok := item.(map[string]any)
			if !ok {
				return fmt.Errorf("node %s: child %s holds a non-object element", in.Node().ID, child.ID)
			}
			tuple, err := docTuple(def, child, childDoc)
			if err != nil {
				return err
			}
			cn, err := in.AddChild(def, child.ID, tuple)
			if err != nil {
				return err
			}
			if err := fillChildren(def, cn, childDoc); err != nil {
				return err
			}
		}
	}
	return nil
}
