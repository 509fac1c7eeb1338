// Command fixture is the binary of the module tools/reach's tests analyse.
package main

import "fixture/p"

func main() {
	println(p.Run(1), p.Other{}.Get(), p.Client{Name: "c"}.Name)
}
