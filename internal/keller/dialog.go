package keller

import (
	"fmt"

	"penguin/internal/vupdate"
)

// The flat-view translator-choice dialog (Keller 1986): a short series of
// per-relation questions asked of the view definer at view-definition
// time. The effort of answering once is amortized over every subsequent
// view update — the property the amortization experiment measures. It
// speaks the view-object dialog's vocabulary (vupdate.Question,
// vupdate.Answerer, vupdate.Transcript).

// ChooseTranslator conducts the per-relation dialog for a view and
// returns the resulting translator and transcript. Per relation, in join
// order: insertion permission, modification permission, and — for the
// root relation — key-replacement permission.
func ChooseTranslator(v *View, a vupdate.Answerer) (*Translator, vupdate.Transcript, error) {
	tr := &Translator{View: v, Policy: make(map[string]RelationPolicy)}
	var tape vupdate.Transcript
	ask := func(q vupdate.Question) (bool, error) {
		ans, err := a.Answer(q)
		if err != nil {
			return false, err
		}
		tape = append(tape, vupdate.QA{Question: q, Answer: ans})
		return ans, nil
	}
	for i, j := range v.Joins {
		var p RelationPolicy
		var err error
		if p.AllowInsert, err = ask(vupdate.Question{
			ID:   "keller." + j.Relation + ".insert",
			Text: fmt.Sprintf("Can new tuples be inserted into relation %s to implement view updates?", j.Relation),
		}); err != nil {
			return nil, tape, err
		}
		if p.AllowModify, err = ask(vupdate.Question{
			ID:   "keller." + j.Relation + ".modify",
			Text: fmt.Sprintf("Can existing tuples of relation %s be modified to implement view updates?", j.Relation),
		}); err != nil {
			return nil, tape, err
		}
		if i == 0 {
			if p.AllowKeyReplace, err = ask(vupdate.Question{
				ID:   "keller." + j.Relation + ".keyreplace",
				Text: fmt.Sprintf("Can the key of a tuple of the root relation %s be replaced?", j.Relation),
			}); err != nil {
				return nil, tape, err
			}
		}
		tr.Policy[j.Relation] = p
	}
	return tr, tape, nil
}
