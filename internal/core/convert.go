// Package core implements Sinew itself (§3–§4 of the paper): the catalog,
// hybrid physical schema, loader, schema analyzer, column materializer,
// query rewriter, and text-search integration — all layered on the
// unmodified embedded RDBMS in internal/rdbms.
package core

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// sqlTypeOf maps an attribute type to the SQL column type used when the
// attribute is materialized as a physical column. Nested documents
// materialize as bytea holding a serialized sub-record (§6.1: nested_obj is
// "itself a serialized data column").
func sqlTypeOf(t serial.AttrType) types.Type {
	switch t {
	case serial.TypeString:
		return types.Text
	case serial.TypeInt:
		return types.Int
	case serial.TypeFloat:
		return types.Float
	case serial.TypeBool:
		return types.Bool
	case serial.TypeObject:
		return types.Bytes
	case serial.TypeArray:
		return types.Array
	default:
		return types.Unknown
	}
}

// datumFromJSON converts an extracted JSON value to a SQL datum. Nested
// objects become their serialized sub-record bytes; arrays convert
// element-wise.
func datumFromJSON(v jsonx.Value, dict serial.Dict) (types.Datum, error) {
	switch v.Kind {
	case jsonx.Null:
		return types.NewNull(types.Unknown), nil
	case jsonx.Bool:
		return types.NewBool(v.B), nil
	case jsonx.Int:
		return types.NewInt(v.I), nil
	case jsonx.Float:
		return types.NewFloat(v.F), nil
	case jsonx.String:
		return types.NewText(v.S), nil
	case jsonx.Object:
		data, err := serial.Serialize(v.Obj, dict)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBytes(data), nil
	case jsonx.Array:
		elems := make([]types.Datum, len(v.A))
		for i, e := range v.A {
			d, err := datumFromJSON(e, dict)
			if err != nil {
				return types.Datum{}, err
			}
			elems[i] = d
		}
		return types.NewArray(elems...), nil
	default:
		return types.Datum{}, fmt.Errorf("core: cannot convert %v to a datum", v.Kind)
	}
}

// jsonFromDatum converts a SQL datum back into a JSON value (the
// dematerialization direction). Bytes are assumed to hold a serialized
// sub-record.
func jsonFromDatum(d types.Datum, dict serial.Dict) (jsonx.Value, error) {
	if d.IsNull() {
		return jsonx.NullValue(), nil
	}
	switch d.Typ {
	case types.Bool:
		return jsonx.BoolValue(d.Bool()), nil
	case types.Int:
		return jsonx.IntValue(d.I), nil
	case types.Float:
		return jsonx.FloatValue(d.Float()), nil
	case types.Text:
		return jsonx.StringValue(d.Text()), nil
	case types.Bytes:
		doc, err := serial.Deserialize(d.Bytes(), dict)
		if err != nil {
			return jsonx.Value{}, err
		}
		return jsonx.ObjectValue(doc), nil
	case types.Array:
		arr := d.Array()
		elems := make([]jsonx.Value, len(arr))
		for i, e := range arr {
			v, err := jsonFromDatum(e, dict)
			if err != nil {
				return jsonx.Value{}, err
			}
			elems[i] = v
		}
		return jsonx.ArrayValue(elems...), nil
	default:
		return jsonx.Value{}, fmt.Errorf("core: cannot convert %v datum to JSON", d.Typ)
	}
}
