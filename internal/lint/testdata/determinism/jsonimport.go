package fixture

// A replay-path file that imports encoding/json: the import is the
// finding, whatever the file does with it.

import (
	"encoding/json" // want "encoding/json on the deterministic replay path"
)

func decodeArgs(raw []byte, out any) error {
	return json.Unmarshal(raw, out)
}
