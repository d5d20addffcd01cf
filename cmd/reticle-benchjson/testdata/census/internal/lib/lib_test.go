package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTest() != 3 || Dead != 5 {
		t.Fail()
	}
}
