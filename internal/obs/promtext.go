package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hic/internal/metrics"
)

// The Prometheus 0.0.4 text exposition format: the one writer every
// exposition in the repo renders through (the live /metrics, its fleet
// rollup, and the one-shot snapshot export behind -metrics-out), and a
// minimal parser that validates what it writes. Tests parse output
// through ParseProm instead of string-matching, so formatting churn
// that remains valid exposition does not break them, while real
// violations (bad names, conflicting TYPE lines, a series written
// twice, unparsable values) do.

// promWriter renders samples as 0.0.4 text. It keeps each family's
// lines together under one TYPE line, in the order the families first
// appear, even when sources interleave them (the coordinator emits each
// worker's series in turn; the result and warm stores share the
// hic_runcache_* names). A family's suffixed series (a gauge's _max, a
// summary's _sum and _count) follow under that one TYPE.
type promWriter struct {
	order []string
	text  map[string][]byte
	last  string
}

// sample writes one series line under its family (the name up to its
// label set), declaring the family's type if this is its first series.
func sample[V int64 | uint64 | float64](p *promWriter, name, typ string, v V) {
	fam := name
	if i := strings.IndexByte(fam, '{'); i >= 0 {
		fam = fam[:i]
	}
	if _, ok := p.text[fam]; !ok {
		if p.text == nil {
			p.text = make(map[string][]byte)
		}
		p.order = append(p.order, fam)
		p.text[fam] = fmt.Appendf(nil, "# TYPE %s %s\n", fam, typ)
	}
	p.last = fam
	line(p, name, v)
}

// line writes one series line of the family sampled last. Integers
// print with %d and floats with %g, so a counter past 1e6 stays an
// integer on the page.
func line[V int64 | uint64 | float64](p *promWriter, series string, v V) {
	p.text[p.last] = fmt.Appendf(p.text[p.last], "%s %v\n", series, v)
}

// flush writes the page, one family after another.
func (p *promWriter) flush(w io.Writer) error {
	for _, fam := range p.order {
		if _, err := w.Write(p.text[fam]); err != nil {
			return err
		}
	}
	return nil
}

// promName mangles a dotted registry name into the Prometheus charset
// under prefix: promName("hic_", "nic.rx.drops") = "hic_nic_rx_drops".
// Every rune outside [a-zA-Z0-9_] (an invalid UTF-8 byte counts as one)
// becomes one underscore.
func promName(prefix, name string) string {
	b := make([]byte, 0, len(prefix)+len(name))
	b = append(b, prefix...)
	for _, r := range name {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b = append(b, byte(r))
		} else {
			b = append(b, '_')
		}
	}
	return string(b)
}

// WritePrometheus renders one registry snapshot (one run's metrics):
// counters and gauges directly, a gauge with its _max, histograms as
// summaries with fixed quantiles, _sum and _count. Families are named
// promName("hic_", name) and sorted by name within each kind; the
// output is deterministic for a given snapshot. hicsim and hiccap
// -metrics-out files are this output.
func WritePrometheus(w io.Writer, snap metrics.Snapshot) error {
	p := &promWriter{}
	for _, n := range sortedKeys(snap.Counters) {
		sample(p, promName("hic_", n), "counter", snap.Counters[n])
	}
	for _, n := range sortedKeys(snap.Gauges) {
		name, g := promName("hic_", n), snap.Gauges[n]
		sample(p, name, "gauge", g.Value)
		line(p, name+"_max", g.Max)
	}
	for _, n := range sortedKeys(snap.Histograms) {
		name, h := promName("hic_", n), snap.Histograms[n]
		sample(p, name+`{quantile="0.5"}`, "summary", h.P50)
		line(p, name+`{quantile="0.9"}`, h.P90)
		line(p, name+`{quantile="0.99"}`, h.P99)
		line(p, name+`{quantile="0.999"}`, h.P999)
		line(p, name+"_sum", h.Sum)
		line(p, name+"_count", h.Count)
	}
	return p.flush(w)
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromDoc is a parsed exposition document.
type PromDoc struct {
	Samples []PromSample
	// Types maps base metric name to its declared TYPE.
	Types map[string]string
}

// Find returns the samples with the given base name.
func (d *PromDoc) Find(name string) []PromSample {
	var out []PromSample
	for _, s := range d.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the single sample with the given name and no labels,
// or an error if absent or ambiguous.
func (d *PromDoc) Value(name string) (float64, error) {
	var hits []PromSample
	for _, s := range d.Samples {
		if s.Name == name && len(s.Labels) == 0 {
			hits = append(hits, s)
		}
	}
	if len(hits) != 1 {
		return 0, fmt.Errorf("promtext: %d samples named %q", len(hits), name)
	}
	return hits[0].Value, nil
}

// ParseProm parses a 0.0.4 text exposition document, validating metric
// names, label syntax, TYPE consistency, and that no series (a name
// and its label set) appears twice — a scraper rejects such a page.
func ParseProm(r io.Reader) (*PromDoc, error) {
	doc := &PromDoc{Types: make(map[string]string)}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(doc, line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		id := fmt.Sprintf("%s%q", s.Name, s.Labels) // fmt prints map keys sorted
		if seen[id] {
			return nil, fmt.Errorf("promtext: line %d: duplicate series %s %v", lineNo, s.Name, s.Labels)
		}
		seen[id] = true
		doc.Samples = append(doc.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

func parseComment(doc *PromDoc, line string, lineNo int) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[1] != "TYPE" {
		return nil // HELP or free comment: ignore
	}
	if len(fields) != 4 {
		return fmt.Errorf("promtext: line %d: malformed TYPE line", lineNo)
	}
	name, typ := fields[2], fields[3]
	if !validMetricName(name) {
		return fmt.Errorf("promtext: line %d: invalid metric name %q", lineNo, name)
	}
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("promtext: line %d: unknown type %q", lineNo, typ)
	}
	if prev, ok := doc.Types[name]; ok && prev != typ {
		return fmt.Errorf("promtext: line %d: %s re-declared as %s (was %s)", lineNo, name, typ, prev)
	}
	doc.Types[name] = typ
	return nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{}
	// Name runs until '{', whitespace, or end.
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	val := strings.Fields(rest)
	if len(val) < 1 || len(val) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("expected value after metric name")
	}
	v, err := strconv.ParseFloat(val[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", val[0], err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(body) {
		// label name
		j := i
		for j < len(body) && body[j] != '=' {
			j++
		}
		if j == len(body) {
			return nil, fmt.Errorf("label without value in %q", body)
		}
		name := strings.TrimSpace(body[i:j])
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		// quoted value
		j++ // past '='
		if j >= len(body) || body[j] != '"' {
			return nil, fmt.Errorf("label value for %q not quoted", name)
		}
		j++
		var sb strings.Builder
		for j < len(body) && body[j] != '"' {
			if body[j] == '\\' && j+1 < len(body) {
				j++
				switch body[j] {
				case 'n':
					sb.WriteByte('\n')
				case '\\', '"':
					sb.WriteByte(body[j])
				default:
					sb.WriteByte('\\')
					sb.WriteByte(body[j])
				}
			} else {
				sb.WriteByte(body[j])
			}
			j++
		}
		if j >= len(body) {
			return nil, fmt.Errorf("unterminated label value for %q", name)
		}
		labels[name] = sb.String()
		j++ // past closing quote
		if j < len(body) && body[j] == ',' {
			j++
		}
		i = j
	}
	return labels, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
