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
