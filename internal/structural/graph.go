package structural

import (
	"fmt"
	"sort"
	"strings"

	"penguin/internal/reldb"
)

// Graph is the structural schema of a database: the directed graph whose
// vertices are the database's relations and whose edges are validated
// connections. A Graph also answers traversal queries in both directions,
// exposing the inverse connection C⁻¹ the paper defines for every
// connection C.
type Graph struct {
	db     *reldb.Database
	conns  []*Connection
	byName map[string]*Connection
	out    map[string][]*Connection // keyed by From
	in     map[string][]*Connection // keyed by To
}

// NewGraph creates an empty structural schema over db.
func NewGraph(db *reldb.Database) *Graph {
	return &Graph{
		db:     db,
		byName: make(map[string]*Connection),
		out:    make(map[string][]*Connection),
		in:     make(map[string][]*Connection),
	}
}

// Database returns the underlying database.
func (g *Graph) Database() *reldb.Database { return g.db }

// AddConnection validates c and adds it to the graph. An empty Name is
// replaced by a canonical "From->To#k" label.
func (g *Graph) AddConnection(c *Connection) error {
	if err := c.Validate(g.db); err != nil {
		return err
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s-%s-%s", c.From, c.Type, c.To)
		for i := 2; ; i++ {
			if _, dup := g.byName[c.Name]; !dup {
				break
			}
			c.Name = fmt.Sprintf("%s-%s-%s#%d", c.From, c.Type, c.To, i)
		}
	}
	if _, dup := g.byName[c.Name]; dup {
		return fmt.Errorf("structural: duplicate connection name %q", c.Name)
	}
	if err := g.ensureEdgeIndexes(c); err != nil {
		return err
	}
	g.byName[c.Name] = c
	g.conns = append(g.conns, c)
	g.out[c.From] = append(g.out[c.From], c)
	g.in[c.To] = append(g.in[c.To], c)
	return nil
}

// ensureEdgeIndexes registers a secondary index on each side's connecting
// attributes so that every edge crossing (ConnectedVia, for a level of
// an instance or for one translated row) probes instead of scanning.
// Both directions get one, because instantiation crosses connections
// forward (ownership children) and inverse (reference parents) alike.
// Sides whose attribute set is the whole primary key are skipped: the
// lookup serves those with a point probe of the row tree already. Index creation here relies on the same setup-phase
// discipline as the rest of schema wiring: connections are added before
// any concurrent access to the database starts.
func (g *Graph) ensureEdgeIndexes(c *Connection) error {
	if err := g.ensureEdgeIndex(c.To, c.ToAttrs, "conn_"+c.Name+"_to"); err != nil {
		return err
	}
	return g.ensureEdgeIndex(c.From, c.FromAttrs, "conn_"+c.Name+"_from")
}

func (g *Graph) ensureEdgeIndex(relName string, attrs []string, idxName string) error {
	rel, err := g.db.Relation(relName)
	if err != nil {
		return err
	}
	if attrSetKind(rel.Schema(), attrs) == wholeKey {
		return nil
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			// Duplicate attributes cannot be indexed; the lookup paths
			// reject them too, so traversal falls back to a scan.
			return nil
		}
		seen[a] = true
	}
	if rel.HasIndexOn(attrs) {
		return nil
	}
	return rel.CreateIndex(idxName, attrs)
}

// MustAddConnection is AddConnection that panics on error (fixtures).
func (g *Graph) MustAddConnection(c *Connection) {
	if err := g.AddConnection(c); err != nil {
		panic(err)
	}
}

// Connection returns the named connection.
func (g *Graph) Connection(name string) (*Connection, bool) {
	c, ok := g.byName[name]
	return c, ok
}

// Connections returns all connections in insertion order.
func (g *Graph) Connections() []*Connection {
	return append([]*Connection(nil), g.conns...)
}

// Outgoing returns the connections whose From is rel, in insertion order.
func (g *Graph) Outgoing(rel string) []*Connection {
	return append([]*Connection(nil), g.out[rel]...)
}

// Incoming returns the connections whose To is rel, in insertion order.
func (g *Graph) Incoming(rel string) []*Connection {
	return append([]*Connection(nil), g.in[rel]...)
}

// Edge is a directed traversal step: a connection crossed either forward
// (From→To) or inverse (To→From, the connection C⁻¹).
type Edge struct {
	Conn *Connection
	// Forward is true when the traversal follows the connection's own
	// direction (From→To) and false for the inverse connection.
	Forward bool
}

// Source returns the relation this edge leaves.
func (e Edge) Source() string {
	if e.Forward {
		return e.Conn.From
	}
	return e.Conn.To
}

// Target returns the relation this edge enters.
func (e Edge) Target() string {
	if e.Forward {
		return e.Conn.To
	}
	return e.Conn.From
}

// SourceAttrs returns the connecting attributes on the source side.
func (e Edge) SourceAttrs() []string {
	if e.Forward {
		return e.Conn.FromAttrs
	}
	return e.Conn.ToAttrs
}

// TargetAttrs returns the connecting attributes on the target side.
func (e Edge) TargetAttrs() []string {
	if e.Forward {
		return e.Conn.ToAttrs
	}
	return e.Conn.FromAttrs
}

// String renders the edge with its direction.
func (e Edge) String() string {
	arrow := e.Conn.Type.Symbol()
	if !e.Forward {
		arrow = "inv(" + arrow + ")"
	}
	return fmt.Sprintf("%s %s %s", e.Source(), arrow, e.Target())
}

// Edges returns every traversal step available from rel: each outgoing
// connection forward and each incoming connection inverse. Order is
// deterministic: forward edges first (insertion order), then inverse.
func (g *Graph) Edges(rel string) []Edge {
	var edges []Edge
	for _, c := range g.out[rel] {
		edges = append(edges, Edge{Conn: c, Forward: true})
	}
	for _, c := range g.in[rel] {
		edges = append(edges, Edge{Conn: c, Forward: false})
	}
	return edges
}

// Relations returns the names of relations that participate in at least
// one connection, sorted.
func (g *Graph) Relations() []string {
	seen := make(map[string]bool)
	for _, c := range g.conns {
		seen[c.From] = true
		seen[c.To] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate re-validates every connection (used after schema evolution).
func (g *Graph) Validate() error {
	for _, c := range g.conns {
		if err := c.Validate(g.db); err != nil {
			return err
		}
	}
	return nil
}

// Render produces a deterministic text rendering of the structural schema,
// used to regenerate Figure 1.
func (g *Graph) Render() string {
	var b strings.Builder
	b.WriteString("Structural schema\n")
	b.WriteString("=================\n")
	b.WriteString("Relations:\n")
	for _, name := range g.db.Names() {
		rel, err := g.db.Relation(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "  %s\n", rel.Schema())
	}
	b.WriteString("Connections:\n")
	for _, c := range g.conns {
		fmt.Fprintf(&b, "  %-40s [%s, %s]\n", c.String(), c.Type, c.Type.Cardinality())
	}
	return b.String()
}
