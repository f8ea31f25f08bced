package obs

import (
	"strings"
	"testing"
)

func TestParsePromValid(t *testing.T) {
	doc, err := ParseProm(strings.NewReader(`
# HELP hic_x free-form help text, ignored
# TYPE hic_x counter
hic_x 42
# TYPE hic_pool_slots gauge
hic_pool_slots{state="busy"} 3
hic_pool_slots{state="idle"} 1
# TYPE hic_lat summary
hic_lat{quantile="0.5"} 1.5e-3
hic_lat{quantile="0.99"} 0.25
hic_lat_count 100
weird_label{msg="a\nb \"quoted\" \\ done",k2="v2"} -7 1700000000
`))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if v, err := doc.Value("hic_x"); err != nil || v != 42 {
		t.Errorf("hic_x = %v, %v; want 42", v, err)
	}
	if doc.Types["hic_x"] != "counter" || doc.Types["hic_pool_slots"] != "gauge" || doc.Types["hic_lat"] != "summary" {
		t.Errorf("types = %v", doc.Types)
	}
	slots := doc.Find("hic_pool_slots")
	if len(slots) != 2 || slots[0].Labels["state"] != "busy" || slots[0].Value != 3 {
		t.Errorf("hic_pool_slots = %+v", slots)
	}
	w := doc.Find("weird_label")
	if len(w) != 1 {
		t.Fatalf("weird_label = %+v", w)
	}
	if got := w[0].Labels["msg"]; got != "a\nb \"quoted\" \\ done" {
		t.Errorf("escaped label = %q", got)
	}
	if w[0].Labels["k2"] != "v2" || w[0].Value != -7 {
		t.Errorf("weird_label = %+v", w[0])
	}
}

func TestParsePromRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad metric name", "9leading_digit 1\n"},
		{"bad char in name", "has-dash 1\n"},
		{"missing value", "hic_x\n"},
		{"unparsable value", "hic_x notanumber\n"},
		{"unterminated labels", `hic_x{a="b" 1` + "\n"},
		{"unquoted label value", "hic_x{a=b} 1\n"},
		{"bad label name", `hic_x{0a="b"} 1` + "\n"},
		{"unterminated label value", `hic_x{a="b} 1` + "\n"},
		{"malformed TYPE", "# TYPE hic_x\n"},
		{"unknown TYPE", "# TYPE hic_x widget\n"},
		{"TYPE bad name", "# TYPE bad-name counter\n"},
		{"conflicting TYPE", "# TYPE hic_x counter\n# TYPE hic_x gauge\n"},
		{"duplicate series", "# TYPE hic_x counter\nhic_x 1\nhic_x 2\n"},
		{"duplicate labeled series", `hic_x{a="1",b="2"} 1` + "\n" + `hic_x{b="2",a="1"} 2` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseProm(strings.NewReader(c.in)); err == nil {
				t.Errorf("ParseProm accepted %q", c.in)
			}
		})
	}
}

func TestParsePromRepeatedConsistentType(t *testing.T) {
	// Re-declaring the SAME type is legal (the promWriter never does it,
	// but concatenated expositions may), as long as each series is new.
	if _, err := ParseProm(strings.NewReader("# TYPE hic_x counter\nhic_x{a=\"1\"} 1\n# TYPE hic_x counter\nhic_x{a=\"2\"} 2\n")); err != nil {
		t.Errorf("consistent TYPE re-declaration rejected: %v", err)
	}
}
