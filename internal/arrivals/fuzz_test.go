package arrivals

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzParseTrace pins the trace file formats. Arbitrary bytes fed to
// ParseJSON or ParseCSV must never panic, and any trace a parser accepts
// must survive WriteCSV -> ParseCSV and WriteJSON -> ParseJSON unchanged:
// a trace one format loads, both formats can store. The committed
// corpus under testdata/fuzz holds adversarial traces: a NaN llc_cap, a
// zero lifetime, duplicate names, an oversized vCPU request, unsorted
// submits and a submit past MaxTick.
func FuzzParseTrace(f *testing.F) {
	for _, name := range []string{"example.json", "example.csv"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, strings.HasSuffix(name, ".csv"))
	}
	f.Fuzz(func(t *testing.T, data []byte, asCSV bool) {
		parse := ParseJSON
		if asCSV {
			parse = ParseCSV
		}
		tr, err := parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, format := range []struct {
			name  string
			write func(Trace, io.Writer) error
			parse func(io.Reader) (Trace, error)
		}{
			{"CSV", Trace.WriteCSV, ParseCSV},
			{"JSON", Trace.WriteJSON, ParseJSON},
		} {
			var buf bytes.Buffer
			if err := format.write(tr, &buf); err != nil {
				t.Fatalf("accepted trace does not write as %s: %v", format.name, err)
			}
			got, err := format.parse(&buf)
			if err != nil {
				t.Fatalf("%s round trip refused the trace: %v\n%s", format.name, err, buf.Bytes())
			}
			if !slices.Equal(tr.Events, got.Events) {
				t.Fatalf("%s round trip diverged:\n%+v\n%+v", format.name, tr.Events, got.Events)
			}
		}
	})
}
