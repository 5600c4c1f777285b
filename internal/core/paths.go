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

// setNested writes v at a dotted key of a record. The parent object has to
// be rewritten around the value, so this — the dematerialization of a
// nested key — is the one move that still goes through the document tree.
func setNested(data []byte, key string, v jsonx.Value, dict serial.Dict) ([]byte, error) {
	doc := jsonx.NewDoc()
	if data != nil {
		var err error
		if doc, err = serial.Deserialize(data, dict); err != nil {
			return nil, err
		}
	}
	docSetPath(doc, key, v)
	return serial.Serialize(doc, dict)
}
