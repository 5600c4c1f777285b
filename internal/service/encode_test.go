package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// referenceReply is the /query reply as the server rendered it before the
// append-style encoder: the result boxed into map[string]any and [][]any
// and handed to encoding/json. It is the oracle the encoder must match
// byte for byte.
func referenceReply(t *testing.T, res *rdbms.Result) []byte {
	t.Helper()
	out := map[string]any{"rows_affected": res.RowsAffected}
	if res.ExplainText != "" {
		out["explain"] = res.ExplainText
	}
	if res.Columns != nil {
		typeNames := make([]string, len(res.Types))
		for i, typ := range res.Types {
			typeNames[i] = typ.String()
		}
		rows := make([][]any, len(res.Rows))
		for i, r := range res.Rows {
			jr := make([]any, len(r))
			for j, d := range r {
				jr[j] = referenceDatum(d)
			}
			rows[i] = jr
		}
		out["columns"] = res.Columns
		out["types"] = typeNames
		out["rows"] = rows
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(out); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return b.Bytes()
}

func referenceDatum(d types.Datum) any {
	if d.IsNull() {
		return nil
	}
	switch d.Typ {
	case types.Bool:
		return d.Bool()
	case types.Int:
		return d.I
	case types.Float:
		return d.Float()
	case types.Text:
		return d.Text()
	case types.Bytes:
		return d.Bytes()
	case types.Array:
		out := make([]any, len(d.Array()))
		for i, e := range d.Array() {
			out[i] = referenceDatum(e)
		}
		return out
	default:
		return d.String()
	}
}

func checkReply(t *testing.T, name string, res *rdbms.Result) {
	t.Helper()
	got, err := appendQueryReply(nil, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := referenceReply(t, res); !bytes.Equal(got, want) {
		t.Errorf("%s: reply differs from encoding/json's\n got: %s\nwant: %s", name, got, want)
	}
}

var awkwardStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
	"tab\tnewline\ncr\rbell\a backspace\b formfeed\f nul\x00 esc\x1b del\x7f",
	"caf\u00e9 \u65e5\u672c\u8a9e \U0001F600", "line\u2028sep para\u2029sep",
	"bad \xff utf8 \xc3", "\xe2\x80", "trailing lone \xf0\x9f",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 0.1, 1e-6, 9.99e-7, 1e-7, -2.5e-9, 1e-10, 1e20, 1e21, -1e21,
	1.2345e25, 1e100, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi, 1 << 53,
}

func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	var datums []types.Datum
	for _, s := range awkwardStrings {
		datums = append(datums, types.NewText(s), types.NewBytes([]byte(s)))
	}
	for _, f := range awkwardFloats {
		datums = append(datums, types.NewFloat(f))
	}
	datums = append(datums,
		types.NewBool(true), types.NewBool(false),
		types.NewInt(0), types.NewInt(-1), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewBytes(nil), types.NewBytes([]byte{}), types.NewBytes([]byte{0, 1, 2, 0xfe, 0xff}),
		types.NewNull(types.Int), types.NewNull(types.Text), types.NewNull(types.Array), types.Datum{},
		types.NewArray(), types.NewArray([]types.Datum{}...),
		types.NewArray(types.NewInt(1), types.NewNull(types.Int), types.NewText("<x>")),
		types.NewArray(
			types.NewArray(types.NewFloat(1e-9), types.NewArray()),
			types.NewBytes([]byte("nested")), types.NewBool(false),
		),
	)
	typesOf := func(row storage.Row) []types.Type {
		out := make([]types.Type, len(row))
		for i, d := range row {
			out[i] = d.Typ
		}
		return out
	}
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = awkwardStrings[i%len(awkwardStrings)]
		}
		return out
	}

	// Every datum alone, then all of them as one wide row, twice.
	for i, d := range datums {
		row := storage.Row{d}
		checkReply(t, "datum "+d.String(), &rdbms.Result{Columns: []string{"c"}, Types: typesOf(row), Rows: []storage.Row{row}, RowsAffected: int64(i)})
	}
	wide := storage.Row(datums)
	checkReply(t, "wide rows", &rdbms.Result{Columns: names(len(wide)), Types: typesOf(wide), Rows: []storage.Row{wide, wide}})

	// Reply shapes.
	checkReply(t, "DML", &rdbms.Result{RowsAffected: 42})
	checkReply(t, "DDL", &rdbms.Result{})
	checkReply(t, "negative rows_affected", &rdbms.Result{RowsAffected: -7})
	checkReply(t, "explain only", &rdbms.Result{ExplainText: "Seq Scan on t\n  Filter: (a < 1) & \"b\"\n"})
	checkReply(t, "explain with columns", &rdbms.Result{
		ExplainText: "Project", Columns: []string{"QUERY PLAN"}, Types: []types.Type{types.Text},
		Rows: []storage.Row{{types.NewText("Project")}},
	})
	checkReply(t, "no rows", &rdbms.Result{Columns: []string{"a", "b"}, Types: []types.Type{types.Int, types.Float}})
	checkReply(t, "no columns at all", &rdbms.Result{Columns: []string{}, Types: []types.Type{}, Rows: []storage.Row{{}, {}}})
	checkReply(t, "nil row", &rdbms.Result{Columns: []string{"a"}, Types: []types.Type{types.Int}, Rows: []storage.Row{nil}})

	// Random results: random shapes over random draws of the datums above
	// plus random floats, ints and byte strings.
	rng := rand.New(rand.NewSource(12))
	randomDatum := func() types.Datum {
		switch rng.Intn(5) {
		case 0:
			return types.NewFloat(math.Float64frombits(rng.Uint64()))
		case 1:
			return types.NewInt(rng.Int63() - rng.Int63())
		case 2:
			b := make([]byte, rng.Intn(24))
			rng.Read(b)
			if rng.Intn(2) == 0 {
				return types.NewText(string(b))
			}
			return types.NewBytes(b)
		default:
			return datums[rng.Intn(len(datums))]
		}
	}
	for i := 0; i < 300; i++ {
		res := &rdbms.Result{RowsAffected: int64(rng.Intn(3))}
		width := rng.Intn(6)
		res.Columns, res.Types = names(width), make([]types.Type, width)
		for r := rng.Intn(5); r > 0; r-- {
			row := make(storage.Row, width)
			for c := range row {
				for {
					row[c] = randomDatum()
					if f := row[c].Float(); row[c].Typ != types.Float || !(math.IsNaN(f) || math.IsInf(f, 0)) {
						break
					}
				}
			}
			res.Rows = append(res.Rows, row)
		}
		checkReply(t, "random result", res)
	}
}

// TestQueryReplyRejectsNonFiniteFloats: encoding/json refused NaN and the
// infinities (the old handler then sent an empty 200); the encoder reports
// them so the handler can answer with an error.
func TestQueryReplyRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &rdbms.Result{Columns: []string{"f"}, Types: []types.Type{types.Float},
			Rows: []storage.Row{{types.NewArray(types.NewFloat(f))}}}
		if _, err := appendQueryReply(nil, res); err == nil {
			t.Errorf("%v encoded without error", f)
		}
	}
}
