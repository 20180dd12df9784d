package pattern

import (
	"encoding/json"
	"fmt"
	"io"
)

// ReadAll decodes a JSON array of patterns, compiling each one.
func ReadAll(r io.Reader) ([]*Compiled, error) {
	var raw []Pattern
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("pattern: decode: %w", err)
	}
	out := make([]*Compiled, 0, len(raw))
	for i := range raw {
		c, err := Compile(&raw[i])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
