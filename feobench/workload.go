package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/feo"
	"repro/internal/core"
	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/paper"
	"repro/internal/turtle"
)

// workloadSpec is one traffic mix and the FoodKG it runs on.
type workloadSpec struct {
	name    string
	recipes int
	users   int
	// cqABox loads the paper's competency-question ABox on top of the
	// synthetic graph, so Listings 1-3 return the paper's rows.
	cqABox bool
	// primary is the op the workload is built around; primary_p50_ms
	// reports its median.
	primary opKind
	// maxRate bounds the op sequence length: maxRate ops per second of
	// warm-up plus window (the sequence wraps if clients outrun it).
	maxRate int
	// replayOps is the prefix of the op sequence the traced run replays.
	replayOps int
	// mix is one cycle of op shapes; the sequence deals each cycle in a
	// seeded random order, so every stretch of it holds the mix's shares
	// and the count of expensive ops in a window barely varies.
	mix []share
	gen func(g *opGen, shape string) op
}

// share is how many ops of one shape a mix cycle holds.
type share struct {
	shape string
	n     int
}

var workloads = map[string]workloadSpec{
	"coach": {name: "coach", recipes: 800, users: 100, primary: opRecommend,
		maxRate: 400, replayOps: 60, gen: genCoach,
		mix: []share{{"recommend", 8}, {"sparql", 1}, {"stats", 1}}},
	"kbqa": {name: "kbqa", recipes: 3200, users: 25, cqABox: true, primary: opSPARQL,
		maxRate: 2000, replayOps: 600, gen: genKBQA,
		mix: []share{{"listing", 6}, {"recipe-point", 35}, {"user-point", 5}, {"recipe-join", 15},
			{"user-join", 5}, {"limit", 14}, {"scan", 5}, {"ask", 15}}},
	"explain-write": {name: "explain-write", recipes: 1600, users: 25, primary: opExplain,
		maxRate: 1200, replayOps: 500, gen: genExplainWrite,
		mix: []share{{"explain", 2}, {"read-back", 1}, {"point", 1}}},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func opsFor(spec workloadSpec, window time.Duration) int {
	return int(float64(spec.maxRate) * (window + warmup).Seconds())
}

type opKind int

const (
	opRecommend opKind = iota
	opSPARQL
	opStats
	opExplain
	numOpKinds
)

var opNames = [numOpKinds]string{"recommend", "sparql", "stats", "explain"}

func (k opKind) String() string { return opNames[k] }

// SPARQL Protocol invocation forms.
const (
	formGET = iota
	formPOSTForm
	formPOSTDirect
	numForms
)

var formats = []string{"json", "xml", "csv", "tsv"}

// op is one generated request.
type op struct {
	kind opKind
	// class names the query shape (for reporting); empty for non-SPARQL.
	class string
	// recommend
	user string
	// sparql
	query  string
	format string
	form   int
	// explain
	exType                      core.ExplanationType
	primary, secondary, askedBy string
}

// key identifies ops whose answers must be identical on an unchanged graph.
func (o *op) key() string {
	switch o.kind {
	case opRecommend:
		return "recommend " + o.user
	case opSPARQL:
		return o.format + " " + o.query
	default:
		return o.kind.String()
	}
}

// seededKG describes the seeded data directory.
type seededKG struct {
	dir                         string
	triples                     int
	recipes, users, ingredients []string
}

// seed builds the workload's durable data directory: a synthetic FoodKG
// (foodkg.Config.Seed = seed) materialized by feo.Open, plus the paper's
// CQ ABox for kbqa, compacted into the directory's snapshot.
func seed(spec workloadSpec, seed int64, dir string) (*seededKG, error) {
	cfg := foodkg.DefaultConfig()
	cfg.Seed = seed
	cfg.Recipes = spec.recipes
	cfg.Users = spec.users
	s, err := feo.Open(feo.Options{Data: feo.DataSynthetic, KG: cfg, DataDir: dir})
	if err != nil {
		return nil, err
	}
	if err := seedExtras(s, spec); err != nil {
		s.Close()
		return nil, err
	}
	kg := s.KG()
	out := &seededKG{dir: dir, triples: s.Snapshot().Graph().Len()}
	for _, t := range kg.Recipes {
		out.recipes = append(out.recipes, t.Value)
	}
	for _, t := range kg.Users {
		out.users = append(out.users, t.Value)
	}
	for _, t := range kg.Ingredients {
		out.ingredients = append(out.ingredients, t.Value)
	}
	return out, s.Close()
}

// seedExtras loads the CQ ABox when the workload asks for it and compacts
// the directory, so the server boots from a snapshot with an empty WAL.
func seedExtras(s *feo.Session, spec workloadSpec) error {
	if spec.cqABox {
		var ttl strings.Builder
		if err := turtle.Write(&ttl, ontology.ABox(ontology.CQAll)); err != nil {
			return err
		}
		if err := s.LoadTurtle(ttl.String()); err != nil {
			return fmt.Errorf("loading the CQ ABox: %w", err)
		}
	}
	return s.Compact()
}

// copyDir makes a fresh copy of a (flat) data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			return err
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// opGen is the seeded generator state shared by the workload mixes.
type opGen struct {
	rng  *rand.Rand
	kg   *seededKG
	zipf *rand.Zipf
	perm []int
	// n counts generated ops of each shape, to rotate formats and forms.
	n map[string]int
	// lastExplain is the most recent explain op in the sequence, whose
	// individuals the explain-write reads look up.
	lastExplain *op
	// deck holds the rest of the current mix cycle.
	deck []string
}

// draw deals the next shape of the mix, shuffling a new cycle when the
// current one is used up.
func (g *opGen) draw(mix []share) string {
	if len(g.deck) == 0 {
		for _, sh := range mix {
			for range sh.n {
				g.deck = append(g.deck, sh.shape)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	shape := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return shape
}

func genOps(spec workloadSpec, kg *seededKG, seed int64, n int) []op {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), kg: kg, n: map[string]int{}}
	g.perm = g.rng.Perm(len(kg.users))
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(kg.users)-1))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = spec.gen(g, g.draw(spec.mix))
		if ops[i].kind == opExplain {
			g.lastExplain = &ops[i]
		}
	}
	return ops
}

func (g *opGen) recipe() string { return g.kg.recipes[g.rng.Intn(len(g.kg.recipes))] }
func (g *opGen) user() string   { return g.kg.users[g.rng.Intn(len(g.kg.users))] }

// sparql builds a query op; format and invocation form rotate per class so
// every class meets every combination.
func (g *opGen) sparql(class, query string, rotateForms bool) op {
	k := g.n[class]
	g.n[class]++
	o := op{kind: opSPARQL, class: class, query: query, format: formats[k%len(formats)]}
	if rotateForms {
		o.form = (k / len(formats)) % numForms
	}
	return o
}

// coachQuery is the fixed text of coach's /sparql share. One text keeps
// the share's latencies in one cluster, so its median is steady.
const coachQuery = `SELECT ?r ?label WHERE { ?r feo:compatibleWithDiet <https://purl.org/heals/foodkg/diet/Vegan> ; rdfs:label ?label } LIMIT 10`

// genCoach: 80% /recommend?limit=10 for Zipf(1.1) users, 10% fixed-text
// /sparql rotating the four formats, 10% /stats. No writes.
func genCoach(g *opGen, shape string) op {
	switch shape {
	case "recommend":
		return op{kind: opRecommend, user: g.kg.users[g.perm[g.zipf.Uint64()]]}
	case "sparql":
		return g.sparql("fixed-text", coachQuery, false)
	default:
		return op{kind: opStats}
	}
}

var (
	listings   = []string{paper.Listing1Query, paper.Listing2Query, paper.Listing3Query}
	limitScans = []string{
		`SELECT ?r ?label WHERE { ?r a food:Recipe ; rdfs:label ?label } LIMIT 10`,
		`SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i } LIMIT 10`,
		`SELECT ?u ?r WHERE { ?u feo:like ?r } LIMIT 10`,
		`SELECT ?r ?d WHERE { ?r feo:compatibleWithDiet ?d } LIMIT 10`,
	}
	fullScan = `SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i }`
)

func recipePoint(r string) string {
	return `SELECT ?i ?label WHERE { <` + r + `> feo:hasIngredient ?i . ?i rdfs:label ?label }`
}

// genKBQA: SPARQL only, over all three invocation forms and all four
// formats: Listings 1-3 verbatim, point and join lookups with inlined
// IRIs (thousands of distinct texts, more than the 512-entry query-text
// cache), LIMIT 10 scans, ~5% full hasIngredient scans, and ASK.
func genKBQA(g *opGen, shape string) op {
	switch shape {
	case "listing":
		k := g.n["listing"]
		return g.sparql("listing", listings[(k/len(formats))%len(listings)], true)
	case "recipe-point":
		return g.sparql("point", recipePoint(g.recipe()), true)
	case "user-point":
		return g.sparql("point", `SELECT ?r WHERE { <`+g.user()+`> feo:like ?r }`, true)
	case "recipe-join":
		return g.sparql("join", `SELECT ?i ?season WHERE { <`+g.recipe()+`> feo:hasIngredient ?i . ?i feo:availableIn ?season }`, true)
	case "user-join":
		return g.sparql("join", `SELECT ?r ?i WHERE { <`+g.user()+`> feo:allergicTo ?i . ?r feo:hasIngredient ?i }`, true)
	case "limit":
		k := g.n["limit"]
		return g.sparql("limit", limitScans[(k/len(formats))%len(limitScans)], true)
	case "scan":
		return g.sparql("scan", fullScan, true)
	default:
		ing := g.kg.ingredients[g.rng.Intn(len(g.kg.ingredients))]
		return g.sparql("ask", `ASK { <`+g.recipe()+`> feo:hasIngredient <`+ing+`> }`, true)
	}
}

// explainTypes are the Table I types explain-write rotates: all but
// trace-based, which ranks every recipe under the writer lock.
var explainTypes = []core.ExplanationType{
	core.CaseBased, core.Contextual, core.Contrastive, core.Counterfactual,
	core.Everyday, core.Scientific, core.SimulationBased, core.Statistical,
}

// readBack finds the explanation individuals asserted for questions about
// primary.
func readBack(primary string) string {
	return `SELECT ?e ?c WHERE { { ?q feo:hasParameter <` + primary + `> } UNION { ?q feo:hasPrimaryParameter <` +
		primary + `> } ?e eo:addresses ?q ; rdfs:comment ?c }`
}

// genExplainWrite: 50% POST /explain over uniformly drawn recipes and
// users, rotating the eight types; 50% /sparql reads, half of them of the
// latest explained recipe's question and explanation individuals, half
// recipe point lookups.
func genExplainWrite(g *opGen, shape string) op {
	if shape == "explain" {
		k := g.n["explain"]
		g.n["explain"]++
		o := op{kind: opExplain, exType: explainTypes[k%len(explainTypes)],
			primary: g.recipe(), askedBy: g.user()}
		if o.exType == core.Contrastive {
			o.secondary = g.recipe()
		}
		return o
	}
	if shape == "read-back" && g.lastExplain != nil {
		return g.sparql("read-back", readBack(g.lastExplain.primary), true)
	}
	return g.sparql("point", recipePoint(g.recipe()), true)
}
