package queries

import (
	"strings"
	"testing"

	"datatrace/internal/core"
)

// TestSnapshotLayout pins which stateful operators checkpoint through
// the raw column layout and which through the gob fallback. Queries II,
// IV and V keep pointer-free state, so a change that slides one back to
// gob (a slice or a pointer in a state type) fails here instead of
// quietly costing q4-recovery its snapshot speed; Query VI's Cluster
// keeps a per-location user map, which has no wire layout.
func TestSnapshotLayout(t *testing.T) {
	gob := map[string]bool{"VI/Cluster": true}
	mustRaw := map[string]bool{"II": true, "IV": true, "V": true}
	env := testEnv(t)
	seen := map[string]bool{}
	for _, def := range All() {
		for _, n := range def.DAG(env, 1).Nodes() {
			if n.Kind != core.OpNode {
				continue
			}
			inst := n.Op.New()
			layout := core.SnapshotLayout(inst)
			if core.IsStateless(inst) {
				if layout != "" {
					t.Errorf("%s/%s: stateless, but layout %q", def.Name, n.Op.Name(), layout)
				}
				continue
			}
			name := def.Name + "/" + n.Op.Name()
			seen[def.Name] = true
			usesGob := strings.Contains(layout, "=gob")
			switch {
			case layout == "":
				t.Errorf("%s: stateful, but no snapshot layout", name)
			case gob[name] && !usesGob:
				t.Errorf("%s: layout %q, want the gob fallback for its map state", name, layout)
			case !gob[name] && usesGob:
				t.Errorf("%s: layout %q slid back to the gob fallback", name, layout)
			}
			t.Logf("%s: %s", name, layout)
		}
	}
	for q := range mustRaw {
		if !seen[q] {
			t.Errorf("Query %s has no stateful operator to pin", q)
		}
	}
}
