package traceroute

import (
	"reflect"
	"testing"
)

// FuzzParseText holds ParseText, which reads rrrtrace's text input, to
// its contract: no input panics, and a line it accepts is one FormatText
// renders back into a line that parses to the same traceroute.
func FuzzParseText(f *testing.F) {
	f.Add("100 7 1.0.0.1 4.0.0.9: 1.0.0.2 * 3.0.0.1 4.0.0.9")
	f.Add("-5 0 0.0.0.0 255.255.255.255:")
	f.Add("1 2 1.2.3.4 5.6.7.8: * * *")
	f.Add("1 2 1.2.3.4 5.6.7.8 9: 1.1.1.1")
	f.Add("9223372036854775807 -1 1.2.3.4 1.2.3.4:1.2.3.4")
	f.Add("1 2 1.2.3 5.6.7.8: 1.1.1.1")
	f.Add(":")
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseText(line)
		if err != nil {
			return
		}
		again, err := ParseText(FormatText(tr))
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", line, FormatText(tr), err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("%q: round trip through %q changed\n %+v\nto\n %+v", line, FormatText(tr), tr, again)
		}
	})
}
