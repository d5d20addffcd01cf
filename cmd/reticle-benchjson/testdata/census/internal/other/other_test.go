package other

import (
	"testing"

	"example.com/m/internal/lib"
)

func TestLib(t *testing.T) {
	if lib.TestOnly() != 2 {
		t.Fail()
	}
}
