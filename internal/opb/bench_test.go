package opb_test

import (
	"bytes"
	"testing"

	"repro/internal/opb"
	"repro/internal/wcnf"
)

// BenchmarkParse reads the 40 Table 1 rows as OPB and the generated
// weighted rows as soft OPB, one pass over all texts per iteration; MB/s is
// the reading rate and allocs/op the allocations of one pass.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct {
		name string
		ins  []parseInput
	}{{"opb", table1Texts(b)}, {"wbo", wboTexts(b)}} {
		b.Run(c.name, func(b *testing.B) {
			var size int64
			for _, in := range c.ins {
				size += int64(len(in.text))
			}
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range c.ins {
					var err error
					if in.soft {
						_, err = wcnf.ParseWBO(bytes.NewReader(in.text))
					} else {
						_, err = opb.Parse(bytes.NewReader(in.text))
					}
					if err != nil {
						b.Fatalf("%s: %v", in.name, err)
					}
				}
			}
		})
	}
}
