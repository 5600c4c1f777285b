package core

import (
	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/serial"
)

// pathDepth counts the dot-separated segments of a key.
func pathDepth(key string) int {
	n := 1
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			n++
		}
	}
	return n
}

// docGetTyped resolves a dotted path whose value matches the attribute
// type; a literal dotted member shadows descent (as in jsonx.PathGet).
func docGetTyped(doc *jsonx.Doc, path string, want serial.AttrType) (jsonx.Value, bool) {
	v, ok := jsonx.PathGet(doc, path)
	if !ok {
		return jsonx.Value{}, false
	}
	at, typed := serial.AttrTypeOf(v)
	if !typed || at != want {
		return jsonx.Value{}, false
	}
	return v, true
}

// docSetPath writes a value at a dotted path, descending into existing
// nested objects and otherwise setting a literal dotted member (matching
// how the loader catalogs flattened paths).
func docSetPath(doc *jsonx.Doc, path string, v jsonx.Value) {
	for i := 0; i < len(path); i++ {
		if path[i] != '.' {
			continue
		}
		head, rest := path[:i], path[i+1:]
		if sub, ok := doc.Get(head); ok && sub.Kind == jsonx.Object {
			docSetPath(sub.Obj, rest, v)
			return
		}
	}
	doc.Set(path, v)
}
