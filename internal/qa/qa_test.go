package qa

import (
	"strings"
	"testing"

	"simjoin/internal/fault"
	"simjoin/internal/ged"
	"simjoin/internal/linker"
	"simjoin/internal/nlq"
	"simjoin/internal/rdf"
	"simjoin/internal/sparql"
	"simjoin/internal/template"
)

// fixture builds a small KB + lexicon covering the paper's running example.
func fixture() (*rdf.Store, *linker.Lexicon) {
	kb := rdf.NewStore()
	kb.MustAdd("Ada_Stone", "type", "Politician")
	kb.MustAdd("Ada_Stone", "graduatedFrom", "CIT_University")
	kb.MustAdd("Rex_Hale", "type", "Scientist")
	kb.MustAdd("Rex_Hale", "graduatedFrom", "CIT_University")
	kb.MustAdd("CIT_University", "type", "University")
	kb.MustAdd("Iris_Lane", "type", "Actor")
	kb.MustAdd("The_Silent_River", "type", "Film")
	kb.MustAdd("The_Silent_River", "director", "Iris_Lane")

	lex := linker.NewLexicon()
	lex.AddEntity("CIT", "CIT_University", "University", 0.8)
	lex.AddEntity("CIT", "CIT_Group", "Company", 0.2)
	lex.AddEntity("Iris Lane", "Iris_Lane", "Actor", 1.0)
	lex.AddRelation("graduated from", "graduatedFrom", 1.0)
	lex.AddRelation("directed by", "director", 1.0)
	lex.AddClass("politician", "Politician")
	lex.AddClass("scientist", "Scientist")
	lex.AddClass("film", "Film")
	return kb, lex
}

func trainedStore(t *testing.T, lex *linker.Lexicon) *template.Store {
	t.Helper()
	qg, err := sparql.ParseToGraph(`SELECT ?x WHERE { ?x type Politician . ?x graduatedFrom CIT_University . }`)
	if err != nil {
		t.Fatal(err)
	}
	uq, err := nlq.Interpret("Which politician graduated from CIT?", lex)
	if err != nil {
		t.Fatal(err)
	}
	world, _ := uq.Graph.MostLikelyWorld()
	_, mapping := ged.DistanceMapping(qg.Graph, world)
	tpl, err := template.Generate(qg, uq, mapping)
	if err != nil {
		t.Fatal(err)
	}
	st := template.NewStore()
	st.Add(tpl)
	return st
}

func TestTemplateSystemAnswers(t *testing.T) {
	kb, lex := fixture()
	sys := &TemplateSystem{Store: trainedStore(t, lex), Lex: lex, KB: kb, MinPhi: 0.5}
	if sys.Name() != "template" {
		t.Error("name")
	}
	res, err := sys.Answer("Which scientist graduated from CIT?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0]["?x"] != "Rex_Hale" {
		t.Fatalf("res = %v, want Rex_Hale", res)
	}
}

func TestTemplateSystemTranslate(t *testing.T) {
	kb, lex := fixture()
	sys := &TemplateSystem{Store: trainedStore(t, lex), Lex: lex, KB: kb, MinPhi: 0.5}
	q, m, err := sys.Translate("Which politician graduated from CIT?")
	if err != nil {
		t.Fatal(err)
	}
	if m.TED != 0 {
		t.Errorf("TED = %d", m.TED)
	}
	if !strings.Contains(q.String(), "CIT_University") {
		t.Errorf("query = %s", q)
	}
}

func TestTemplateSystemAbstains(t *testing.T) {
	kb, lex := fixture()
	sys := &TemplateSystem{Store: trainedStore(t, lex), Lex: lex, KB: kb, MinPhi: 0.9}
	if _, err := sys.Answer("Please please please tell me now which politician graduated from CIT and more words?"); err == nil {
		t.Error("low-phi question answered at MinPhi 0.9")
	}
	if _, err := sys.Answer("Which film directed by Iris Lane?"); err == nil {
		t.Error("uncovered relation answered")
	}
}

func TestTemplateSystemMaxSolutions(t *testing.T) {
	kb, lex := fixture()
	kb.MustAdd("Bob_Stone", "type", "Scientist")
	kb.MustAdd("Bob_Stone", "graduatedFrom", "CIT_University")
	sys := &TemplateSystem{Store: trainedStore(t, lex), Lex: lex, KB: kb, MinPhi: 0.5, MaxSolutions: 1}
	res, err := sys.Answer("Which scientist graduated from CIT?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("MaxSolutions ignored: %d", len(res))
	}
}

func TestGAnswerSystem(t *testing.T) {
	kb, lex := fixture()
	sys := &GAnswerSystem{Lex: lex, KB: kb}
	if sys.Name() != "gAnswer" {
		t.Error("name")
	}
	res, err := sys.Answer("Which politician graduated from CIT?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0]["?x1"] != "Ada_Stone" {
		t.Fatalf("res = %v", res)
	}
	if _, err := sys.Answer("gibberish with no relations"); err == nil {
		t.Error("nonsense answered")
	}
}

func TestDirectTranslate(t *testing.T) {
	_, lex := fixture()
	sg, err := nlq.Extract("Which film directed by Iris Lane?", lex)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DirectTranslate(sg)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	if !strings.Contains(s, "type Film") || !strings.Contains(s, "director Iris_Lane") {
		t.Errorf("translation = %s", s)
	}
}

func TestDeannaSystem(t *testing.T) {
	kb, lex := fixture()
	sys := &DeannaSystem{Lex: lex, KB: kb}
	if sys.Name() != "DEANNA" {
		t.Error("name")
	}
	// Unambiguous single-relation question: answered.
	res, err := sys.Answer("Which film directed by Iris Lane?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0]["?x1"] != "The_Silent_River" {
		t.Fatalf("res = %v", res)
	}
	// Ambiguous entity: abstains (CIT top candidate at 0.8 < 0.9).
	if _, err := sys.Answer("Which politician graduated from CIT?"); err == nil {
		t.Error("ambiguous question answered")
	}
	// Lower confidence requirement accepts it.
	sys.Confidence = 0.7
	if _, err := sys.Answer("Which politician graduated from CIT?"); err != nil {
		t.Errorf("confidence=0.7 should answer: %v", err)
	}
	// Multi-relation: abstains.
	lex.AddRelation("lives in", "livesIn", 1.0)
	lex.AddEntity("Doverville", "Doverville", "City", 1.0)
	if _, err := sys.Answer("Which politician graduated from CIT and lives in Doverville?"); err == nil {
		t.Error("multi-relation question answered by DEANNA baseline")
	}
}

// TestTemplateSystemContainsEnginePanic turns the engine fault into a panic
// and checks Answer survives it: the panic is contained and reported as an
// ordinary error.
func TestTemplateSystemContainsEnginePanic(t *testing.T) {
	kb, lex := fixture()
	sys := &TemplateSystem{Store: trainedStore(t, lex), Lex: lex, KB: kb, MinPhi: 0.5}
	defer fault.Reset()
	if err := fault.Enable("sparql.execute=panic#1"); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Answer("Which scientist graduated from CIT?")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("contained panic not surfaced as error: %v", err)
	}
}
