package p

import "testing"

func TestSetsTestOnly(t *testing.T) {
	var x T
	x.TestOnly = 1
}

func TestReadsTestOnly(t *testing.T) {
	var x T
	_ = x.TestOnly
}

func TestReadsWriteOnly(t *testing.T) {
	var x T
	_ = x.WriteOnly
}

func TestClientGet(t *testing.T) {
	c := &Client{}
	_ = c.Get()
}

func TestOtherGet(t *testing.T) {
	_ = Other{}.Get()
}
