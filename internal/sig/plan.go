package sig

import (
	"appx/internal/jsonpath"
)

// Read plans: what dynamic learning reads from a predecessor's response, and
// how each successor's request is assembled from it, compiled once when the
// adjacency index is built. Static analysis fixed both when it emitted the
// signatures' Dep parts; the proxy sees thousands of responses per second
// and should not re-derive them from path text per response.

// ReadPlan is everything learning needs from one predecessor signature's
// responses. A predecessor without a plan never has its body looked at.
type ReadPlan struct {
	// Paths is the union of the response paths the successors' patterns
	// name, deduplicated by text, in first-use order — the argument
	// jsonpath.Scan takes.
	Paths []jsonpath.Path
	// Succs are the signatures this predecessor can spawn, in Successors
	// order: every successor that exists and has a Dep part on it.
	Succs []*SuccPlan
}

// SuccPlan is one successor signature compiled against one predecessor. An
// instance of it is a []string parallel to Reads: one extracted value per
// distinct response path.
type SuccPlan struct {
	Sig  *Signature
	Pred string
	// Reads locates the instance's values in a Scan over the owning
	// ReadPlan's Paths, in the order the signature's patterns first use
	// them. -1 marks a path whose text does not parse: it never yields a
	// value.
	Reads []int

	URI    PlanPattern
	Query  []PlanField
	Header []PlanField
	Form   []PlanField
	JSON   []PlanField
}

// PlanPattern is a Pattern with its Dep parts on the plan's predecessor
// resolved: Deps[i] is the position in the instance's values that Parts[i]
// takes, or -1 when the part is a literal or is filled from the exemplar.
type PlanPattern struct {
	Pattern
	Deps []int
}

// PlanField is one query, header, form or JSON-body field of a successor.
type PlanField struct {
	// Key is the field's key, or the body path text of a JSON field.
	Key string
	// Slot numbers the signature's query, header and form fields in that
	// order, from 0, as they appear in the signature; an exemplar records
	// each one's presence and captures under it. -1 for a JSON field.
	Slot     int
	Optional bool
	Value    PlanPattern
	// Path is a JSON field's parsed Key; BadPath says it does not parse.
	Path    jsonpath.Path
	BadPath bool
}

// ReadPlan returns the predecessor's compiled plan, or nil when no
// signature draws a value from its responses. Built with the adjacency
// index and invalidated with it; shared, read-only.
func (g *Graph) ReadPlan(predID string) *ReadPlan {
	return g.adjIndex().plans[predID]
}

func buildReadPlan(g *Graph, predID string, succIDs []string) *ReadPlan {
	plan := &ReadPlan{}
	byText := map[string]int{}
	for _, succID := range succIDs {
		s := g.Sig(succID)
		if s == nil {
			continue
		}
		sp := &SuccPlan{Sig: s, Pred: predID}
		slots := map[string]int{} // response path text → position in sp.Reads
		compile := func(p Pattern) PlanPattern {
			pp := PlanPattern{Pattern: p, Deps: make([]int, len(p.Parts))}
			for i, part := range p.Parts {
				pp.Deps[i] = -1
				if part.Kind != Dep || part.PredID != predID {
					continue
				}
				slot, ok := slots[part.RespPath]
				if !ok {
					slot = len(sp.Reads)
					slots[part.RespPath] = slot
					sp.Reads = append(sp.Reads, plan.read(byText, part.RespPath))
				}
				pp.Deps[i] = slot
			}
			return pp
		}
		slot := 0
		fields := func(fs []Field) []PlanField {
			out := make([]PlanField, len(fs))
			for i, f := range fs {
				out[i] = PlanField{Key: f.Key, Slot: slot, Optional: f.Optional, Value: compile(f.Value)}
				slot++
			}
			return out
		}
		// Compile order is first-use order: URI, query, header, form, JSON.
		sp.URI = compile(s.URI)
		sp.Query = fields(s.Query)
		sp.Header = fields(s.Header)
		sp.Form = fields(s.BodyForm)
		for _, f := range s.BodyJSON {
			path, err := jsonpath.Parse(f.Path)
			sp.JSON = append(sp.JSON, PlanField{Key: f.Path, Slot: -1,
				Optional: f.Optional, Value: compile(f.Value), Path: path, BadPath: err != nil})
		}
		if len(sp.Reads) > 0 {
			plan.Succs = append(plan.Succs, sp)
		}
	}
	if len(plan.Succs) == 0 {
		return nil
	}
	return plan
}

// read returns the position of the response path in p.Paths, adding it on
// first use; -1 when the text does not parse.
func (p *ReadPlan) read(byText map[string]int, text string) int {
	if i, ok := byText[text]; ok {
		return i
	}
	i := -1
	if path, err := jsonpath.Parse(text); err == nil {
		i = len(p.Paths)
		p.Paths = append(p.Paths, path)
	}
	byText[text] = i
	return i
}
