package p_test

import (
	"testing"

	"fixture/p"
)

func TestDead(t *testing.T) {
	_ = p.Dead()
}
