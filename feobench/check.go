package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/feo"
	"repro/internal/paper"
)

// recJSON mirrors one element of the /recommend answer.
type recJSON struct {
	Recipe   string  `json:"recipe"`
	Label    string  `json:"label"`
	Score    float64 `json:"score"`
	Excluded bool    `json:"excluded,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// checkAnswers compares every distinct answer of the run with the
// in-process answer on the seeded graph, opened from a fresh copy of the
// seeded directory, and counts ops with a wrong answer as failed.
func (b *bench) checkAnswers(res *runResult) error {
	dir := filepath.Join(b.work, "reference")
	if err := copyDir(b.seeded.dir, dir); err != nil {
		return err
	}
	sess, err := feo.Open(feo.Options{Data: feo.DataNone, DataDir: dir})
	if err != nil {
		return fmt.Errorf("opening the reference session: %w", err)
	}
	defer func() {
		sess.Close()
		os.RemoveAll(dir)
		freeMemory()
	}()
	sn := sess.Snapshot()

	opOf := map[string]*op{}
	for i := range b.ops {
		o := &b.ops[i]
		if _, ok := res.bodies[o.key()]; ok {
			opOf[o.key()] = o
		}
	}
	wrong := map[string]map[uint64]bool{}
	for key, bodies := range res.bodies {
		o := opOf[key]
		ref, refErr := reference(sn, o)
		for h, body := range bodies {
			err := refErr
			if err == nil {
				err = check(o, ref, body)
			}
			if err != nil {
				if wrong[key] == nil {
					wrong[key] = map[uint64]bool{}
				}
				wrong[key][h] = true
				b.problem("%s %s: %v", o.kind, shorten(key), err)
			}
		}
	}
	for i := range res.records {
		rec := &res.records[i]
		if rec.err == "" && wrong[b.ops[rec.op].key()][rec.hash] {
			rec.err = "wrong answer"
		}
	}
	if b.spec.cqABox {
		b.checkListings(sn)
	}
	return nil
}

// answer is the in-process answer to one op on the seeded graph.
type answer struct {
	recs  []recJSON
	stats string
	doc   document
	bytes int
}

// reference computes the in-process answer an op's answers are checked
// against. LIMIT without ORDER BY may return any rows of the full answer,
// so such queries are answered in full.
func reference(sn *feo.Snapshot, o *op) (answer, error) {
	var a answer
	switch o.kind {
	case opRecommend:
		a.recs = []recJSON{}
		for _, r := range sn.Recommend(feo.IRI(o.user), 10) {
			a.recs = append(a.recs, recJSON{r.Recipe.Value, r.Label, r.Score, r.Excluded, r.Reason})
		}
	case opStats:
		a.stats = sn.Stats()
	case opSPARQL:
		if o.class == "read-back" {
			break
		}
		query, _ := strings.CutSuffix(o.query, limitSuffix)
		var ref bytes.Buffer
		if _, err := sn.QueryStream(query, newWriter(o.format, &ref), feo.StreamOptions{}); err != nil {
			return a, fmt.Errorf("in-process query: %w", err)
		}
		a.bytes = ref.Len()
		var err error
		if a.doc, err = normalize(o.format, ref.Bytes()); err != nil {
			return a, fmt.Errorf("in-process %s answer: %w", o.format, err)
		}
	}
	return a, nil
}

// check compares one distinct answer body with the in-process answer.
// Answers of the read-only workloads must equal it. On explain-write the
// graph moves under the reads, so read-back answers must be well formed,
// and point lookups (which explanations never touch) must still equal the
// seeded answer.
func check(o *op, want answer, body []byte) error {
	switch o.kind {
	case opRecommend:
		var got []recJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want.recs) {
			return fmt.Errorf("got %d recommendations, want the in-process top-10 (first got %v, want %v)",
				len(got), first(got), first(want.recs))
		}
	case opStats:
		var got struct{ Stats string }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Stats != want.stats {
			return fmt.Errorf("got %q, want %q", got.Stats, want.stats)
		}
	case opSPARQL:
		got, err := normalize(o.format, body)
		switch {
		case err != nil:
			return fmt.Errorf("malformed %s answer: %w", o.format, err)
		case o.class == "read-back":
			return nil
		case strings.HasSuffix(o.query, limitSuffix):
			if !want.doc.contains(got, limitRows) {
				return fmt.Errorf("%d rows are not %s of the full answer's %d rows",
					len(got.rows), strings.TrimSpace(limitSuffix), len(want.doc.rows))
			}
		case !want.doc.equal(got):
			return fmt.Errorf("answer differs from the in-process answer (%d vs %d rows, %d vs %d bytes)",
				len(got.rows), len(want.doc.rows), len(body), want.bytes)
		}
	}
	return nil
}

func first(rs []recJSON) any {
	if len(rs) == 0 {
		return nil
	}
	return rs[0]
}

func shorten(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

func newWriter(format string, w io.Writer) feo.ResultWriter {
	switch format {
	case "xml":
		return feo.NewXMLResultWriter(w)
	case "csv":
		return feo.NewCSVResultWriter(w)
	case "tsv":
		return feo.NewTSVResultWriter(w)
	default:
		return feo.NewJSONResultWriter(w)
	}
}

// limitSuffix ends every LIMIT query the workloads send.
const (
	limitSuffix = " LIMIT 10"
	limitRows   = 10
)

// document is a SPARQL results document split into its rows, which are
// unordered without ORDER BY, and everything else, which must match.
type document struct {
	frame string
	rows  []string // sorted
}

func (d document) equal(o document) bool {
	return d.frame == o.frame && slices.Equal(d.rows, o.rows)
}

// contains reports whether o is a LIMIT n answer of d: min(n, |d|) of d's
// rows, each used at most as often as d has it.
func (d document) contains(o document, n int) bool {
	if d.frame != o.frame || len(o.rows) != min(n, len(d.rows)) {
		return false
	}
	i := 0
	for _, r := range o.rows {
		for i < len(d.rows) && d.rows[i] < r {
			i++
		}
		if i == len(d.rows) || d.rows[i] != r {
			return false
		}
		i++
	}
	return true
}

// normalize parses a SPARQL results document in the given format.
func normalize(format string, body []byte) (document, error) {
	var d document
	switch format {
	case "json":
		var doc struct {
			Head    json.RawMessage `json:"head"`
			Boolean *bool           `json:"boolean"`
			Results *struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return d, err
		}
		if doc.Results != nil {
			for _, raw := range doc.Results.Bindings {
				var m map[string]any
				if err := json.Unmarshal(raw, &m); err != nil {
					return d, err
				}
				canon, err := json.Marshal(m) // map keys marshal sorted
				if err != nil {
					return d, err
				}
				d.rows = append(d.rows, string(canon))
			}
		}
		d.frame = string(doc.Head)
		if doc.Boolean != nil {
			d.frame += fmt.Sprint(" boolean=", *doc.Boolean)
		}
	case "xml":
		dec := xml.NewDecoder(bytes.NewReader(body))
		for {
			_, err := dec.Token()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return d, err
			}
		}
		s := string(body)
		i := strings.Index(s, "<result>")
		if i < 0 {
			d.frame = s
			break
		}
		j := strings.LastIndex(s, "</result>") + len("</result>")
		for _, r := range strings.SplitAfter(s[i:j], "</result>") {
			if r = strings.TrimSpace(r); r != "" {
				d.rows = append(d.rows, r)
			}
		}
		d.frame = s[:i] + s[j:]
	default:
		s, ok := strings.CutSuffix(string(body), "\n")
		if !ok {
			return d, fmt.Errorf("%s document does not end with a newline", format)
		}
		lines := strings.Split(s, "\n")
		d.frame, d.rows = lines[0], lines[1:]
	}
	sort.Strings(d.rows)
	return d, nil
}

// checkListings checks that Listings 1-3 return the paper's rows on the
// kbqa graph (the server's answers equal these, by checkOne).
func (b *bench) checkListings(sn *feo.Snapshot) {
	want := []struct {
		query string
		rows  []string
		exact bool
	}{
		// Listing 1: the paper's row; Autumn is also a SystemCharacteristic
		// once the three CQ ABoxes are merged, so more rows may follow.
		{paper.Listing1Query, []string{"feo:Autumn feo:SeasonCharacteristic"}, false},
		{paper.Listing2Query, []string{"feo:SeasonCharacteristic feo:Autumn feo:AllergicFoodCharacteristic feo:Broccoli"}, true},
		{paper.Listing3Query, []string{"feo:forbids feo:Sushi -", "feo:recommends feo:Spinach feo:SpinachFrittata"}, true},
	}
	ns := sn.Graph().Namespaces()
	for i, w := range want {
		res, err := sn.Query(w.query)
		if err != nil {
			b.problem("Listing %d: %v", i+1, err)
			continue
		}
		got := map[string]bool{}
		for _, sol := range res.Solutions {
			var cells []string
			for _, v := range res.Vars {
				t, ok := sol[v]
				if !ok {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, t.Compact(ns))
			}
			got[strings.Join(cells, " ")] = true
		}
		for _, row := range w.rows {
			if !got[row] {
				b.problem("Listing %d lacks the paper's row %q", i+1, row)
			}
		}
		if w.exact && len(got) != len(w.rows) {
			b.problem("Listing %d returned %d rows, the paper shows %d", i+1, len(got), len(w.rows))
		}
	}
}

// checkAcks queries the recovered server for every explanation individual
// and checks that each acknowledged explanation is among them.
func (b *bench) checkAcks(s *server, acks []explainAck) error {
	q := `SELECT ?e ?c WHERE { ?e a eo:Explanation ; rdfs:comment ?c }`
	hc := &http.Client{Timeout: 60 * time.Second}
	body, err := fetch(hc, s.base+"/sparql?format=json&query="+url.QueryEscape(q))
	if err != nil {
		return fmt.Errorf("querying recovered explanations: %w", err)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("recovered explanations: %w", err)
	}
	// An explanation individual is kg:explanation/<question>-<type>.
	have := map[string][]string{} // summary -> individuals
	for _, row := range doc.Results.Bindings {
		have[row["c"].Value] = append(have[row["c"].Value], row["e"].Value)
	}
	missing := 0
	for _, a := range acks {
		found := false
		for _, e := range have[a.summary] {
			found = found || strings.HasSuffix(e, "-"+a.exType)
		}
		if !found {
			missing++
		}
	}
	if missing > 0 {
		b.problem("%d of %d acknowledged explanations missing after SIGKILL and reboot", missing, len(acks))
	}
	b.note("durability: %d acknowledged explanations, %d queryable after SIGKILL and reboot", len(acks), len(acks)-missing)
	return nil
}
