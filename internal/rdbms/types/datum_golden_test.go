package types

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/datum_golden.txt. The checked-in file
// was captured on the commit before the compact representation landed (the
// 88-byte struct); this test uses only constructors and the public value
// API so the same source compiles against both.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/datum_golden.txt")

// goldenCorpus is a fixed set of values covering every type, NULLs of every
// type, and the edge cases of each payload.
func goldenCorpus() []Datum {
	return []Datum{
		{},
		NewNull(Unknown), NewNull(Bool), NewNull(Int), NewNull(Float),
		NewNull(Text), NewNull(Bytes), NewNull(Array),
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(2), NewInt(42),
		NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(1 << 53), NewInt(1<<53 + 1),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(1.5), NewFloat(2),
		NewFloat(-2.25), NewFloat(1e100), NewFloat(math.MaxFloat64),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(9007199254740992),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewText(""), NewText("a"), NewText("abc"), NewText("abd"), NewText("true"), NewText(" F "),
		NewText(" 42 "), NewText("3.14"), NewText("1e3"), NewText("NaN"), NewText("nope"),
		NewText("9223372036854775808"), NewText("héllo, wörld ☃"), NewText("nul\x00byte"),
		NewBytes(nil), NewBytes([]byte{}), NewBytes([]byte{0}), NewBytes([]byte("abc")),
		NewBytes([]byte{0xff, 0x00, 0x7f}),
		NewArray(), NewArray([]Datum{}...), NewArray(NewInt(1)), NewArray(NewInt(1), NewInt(2)),
		NewArray(NewFloat(1), NewInt(2)), NewArray(NewInt(1), NewNull(Int)), NewArray(NewNull(Text)),
		NewArray(NewText("x"), NewInt(1), NewBool(true), NewFloat(math.NaN())),
		NewArray(NewArray(NewInt(1)), NewArray(NewInt(2), NewText("y"))),
		NewArray(NewArray(), NewBytes([]byte("z"))),
	}
}

// describe renders everything observable about a datum.
func describe(d Datum) string {
	return fmt.Sprintf("typ=%d null=%t isnull=%t size=%d str=%q key=%x",
		uint8(d.Typ), d.Null, d.IsNull(), d.SizeBytes(), d.String(), d.HashKey(nil))
}

func renderGolden() []byte {
	var out bytes.Buffer
	corpus := goldenCorpus()
	for i, d := range corpus {
		fmt.Fprintf(&out, "datum %d %s\n", i, describe(d))
	}
	for i, a := range corpus {
		for j, b := range corpus {
			c, err := Compare(a, b)
			if err != nil {
				fmt.Fprintf(&out, "cmp %d %d err %v\n", i, j, err)
				continue
			}
			fmt.Fprintf(&out, "cmp %d %d %d eq=%t\n", i, j, c, Equal(a, b))
		}
	}
	targets := []Type{Unknown, Bool, Int, Float, Text, Bytes, Array, Type(9)}
	for i, d := range corpus {
		for _, t := range targets {
			got, err := Cast(d, t)
			if err != nil {
				fmt.Fprintf(&out, "cast %d %d err %v\n", i, uint8(t), err)
				continue
			}
			fmt.Fprintf(&out, "cast %d %d %s\n", i, uint8(t), describe(got))
		}
	}
	return out.Bytes()
}

// TestDatumGolden pins String, HashKey, SizeBytes, Compare (all pairs) and
// Cast (all type pairs) over the corpus to the bytes the previous
// representation produced.
func TestDatumGolden(t *testing.T) {
	path := filepath.Join("testdata", "datum_golden.txt")
	got := renderGolden()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("golden mismatch at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden length mismatch: got %d lines, want %d", len(gl), len(wl))
}
