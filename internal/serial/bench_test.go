package serial

import (
	"fmt"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
)

// benchDoc builds a NoBench-shaped document with nAttrs attributes.
func benchDoc(nAttrs int) *jsonx.Doc {
	d := jsonx.NewDoc()
	for i := 0; i < nAttrs; i++ {
		switch i % 4 {
		case 0:
			d.Set(fmt.Sprintf("int_%03d", i), jsonx.IntValue(int64(i)))
		case 1:
			d.Set(fmt.Sprintf("str_%03d", i), jsonx.StringValue("value-for-benchmarking"))
		case 2:
			d.Set(fmt.Sprintf("flt_%03d", i), jsonx.FloatValue(float64(i)*1.5))
		default:
			d.Set(fmt.Sprintf("bool_%03d", i), jsonx.BoolValue(i%8 == 0))
		}
	}
	return d
}

func BenchmarkSerialize16(b *testing.B)  { benchSerialize(b, 16) }
func BenchmarkSerialize160(b *testing.B) { benchSerialize(b, 160) }

func benchSerialize(b *testing.B, attrs int) {
	dict := NewDictionary()
	doc := benchDoc(attrs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Serialize(doc, dict); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserialize16(b *testing.B) {
	dict := NewDictionary()
	data, _ := Serialize(benchDoc(16), dict)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Deserialize(data, dict); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract16(b *testing.B)  { benchExtract(b, 16) }
func BenchmarkExtract160(b *testing.B) { benchExtract(b, 160) }

func benchExtract(b *testing.B, attrs int) {
	dict := NewDictionary()
	data, _ := Serialize(benchDoc(attrs), dict)
	key := fmt.Sprintf("int_%03d", attrs-4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ExtractPath(data, key, TypeInt, dict); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkExtractNested(b *testing.B) {
	dict := NewDictionary()
	d := benchDoc(8)
	sub := jsonx.NewDoc()
	sub.Set("lang", jsonx.StringValue("en"))
	sub.Set("id", jsonx.IntValue(7))
	d.Set("user", jsonx.ObjectValue(sub))
	data, _ := Serialize(d, dict)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ExtractPath(data, "user.id", TypeInt, dict); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkParseSegmentNoBench times ParseSegment over one heap page of
// NoBench records (128): the validation a freeze pays once per page, the
// sparse index's entries (about ten per record) included.
func BenchmarkParseSegmentNoBench(b *testing.B) {
	dict := NewDictionary()
	enc := NewEncoder(dict, false)
	var records [][]byte
	for _, doc := range nobench.Generate(128, 7) {
		rec, err := enc.EncodeDoc(doc)
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, rec)
	}
	data, err := EncodeSegment(records, dict)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSegment(data); err != nil {
			b.Fatal(err)
		}
	}
}
