package session

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	s, err := ParseLine("10.0.0.7:[3 14 15]")
	if err != nil {
		t.Fatal(err)
	}
	if s.User != "10.0.0.7" || s.Len() != 3 {
		t.Fatalf("parsed %v", s)
	}
	if got := s.Pages(); got[0] != 3 || got[1] != 14 || got[2] != 15 {
		t.Errorf("pages = %v", got)
	}
	for i := 1; i < len(s.Entries); i++ {
		if !s.Entries[i-1].Time.Before(s.Entries[i].Time) {
			t.Error("synthetic timestamps not strictly increasing")
		}
	}
}

func TestParseLineEdgeCases(t *testing.T) {
	empty, err := ParseLine("u:[]")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty session: %v, %v", empty, err)
	}
	colons, err := ParseLine("host:8080|alice:[1 2]")
	if err != nil || colons.User != "host:8080|alice" {
		t.Errorf("colon user: %v, %v", colons, err)
	}
	bad := []string{
		"",
		"noBrackets",
		"[1 2]",          // no user
		"u[1 2]",         // missing colon
		"u:[1 2",         // unterminated
		"u:[1 x]",        // bad page
		"u:[-4]",         // negative page
		"u:[1 2] excess", // trailing junk
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestParseLinePageRange: page ids are int32, and an id outside that range
// must be rejected rather than wrapped into some other page — the parser
// re-ingests dead-letter journals, where a wrapped id would be a silently
// wrong session.
func TestParseLinePageRange(t *testing.T) {
	cases := []struct {
		line  string
		pages []int32
	}{
		{"u:[0 2147483647]", []int32{0, 2147483647}},
		{"u:[2147483648]", nil},
		{"u:[4294967298]", nil},
		{"u:[4294967298 2147483648]", nil},
		{"u:[1 99999999999999999999]", nil},
	}
	for _, c := range cases {
		s, err := ParseLine(c.line)
		if c.pages == nil {
			if err == nil {
				t.Errorf("%q: accepted as pages %v, want an out-of-range error", c.line, s.Pages())
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.line, err)
			continue
		}
		got := s.Pages()
		if len(got) != len(c.pages) {
			t.Errorf("%q: pages %v, want %v", c.line, got, c.pages)
			continue
		}
		for i := range got {
			if int32(got[i]) != c.pages[i] {
				t.Errorf("%q: pages %v, want %v", c.line, got, c.pages)
				break
			}
		}
	}
}

func TestReadWriteAllRoundTrip(t *testing.T) {
	in := []Session{
		mk("alice", 1, 0, 2, 1, 3, 2),
		mk("bob", 7, 0),
		mk("carol"),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d sessions", len(in), len(out))
	}
	for i := range in {
		if out[i].User != in[i].User || out[i].Len() != in[i].Len() {
			t.Errorf("session %d changed: %v vs %v", i, out[i], in[i])
		}
		for j, p := range in[i].Pages() {
			if out[i].Pages()[j] != p {
				t.Errorf("session %d page %d changed", i, j)
			}
		}
	}
}

func TestReadAllSkipsCommentsAndBlanks(t *testing.T) {
	input := "# ground truth\n\nu:[1 2]\n   \n# tail\nv:[3]\n"
	out, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].User != "u" || out[1].User != "v" {
		t.Errorf("parsed %v", out)
	}
}

func TestReadAllReportsLineNumbers(t *testing.T) {
	_, err := ReadAll(strings.NewReader("u:[1]\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v", err)
	}
}
