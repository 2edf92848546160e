package session

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLine checks the session text parser never panics, that every
// accepted page id is exactly the decimal number written in the line (no
// wrapping into another page), and that accepted lines round-trip through
// Session.String.
func FuzzParseLine(f *testing.F) {
	f.Add("10.0.0.7:[3 14 15]")
	f.Add("u:[]")
	f.Add("a:b:[1]")
	f.Add("")
	f.Add("u:[1 -2]")
	f.Add("u:[4294967298 2147483648]")
	f.Add("u:[2147483647]")
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseLine(line)
		if err != nil {
			return
		}
		trimmed := strings.TrimSpace(line)
		fields := strings.Fields(trimmed[strings.IndexByte(trimmed, '[')+1 : len(trimmed)-1])
		if len(fields) != len(s.Entries) {
			t.Fatalf("%q: %d fields but %d entries", line, len(fields), len(s.Entries))
		}
		for i, fld := range fields {
			if want, err := strconv.ParseInt(fld, 10, 64); err != nil || want != int64(s.Entries[i].Page) {
				t.Fatalf("%q: field %q parsed as page %d", line, fld, s.Entries[i].Page)
			}
		}
		again, err := ParseLine(s.String())
		if err != nil {
			t.Fatalf("accepted %q but rejected rendering %q: %v", line, s.String(), err)
		}
		if again.String() != s.String() {
			t.Fatalf("rendering not a fixed point: %q vs %q", again.String(), s.String())
		}
	})
}
