// Package cliflag holds the flag plumbing shared by the five command
// line tools, so every CLI spells the optimizer and engine options the
// same way: -O takes a level argument, -O0/-O1 are the conventional
// shorthands, and -engine accepts only the serving engines, surfacing
// one error naming them otherwise.
package cliflag

import (
	"flag"
	"fmt"

	mdlog "mdlog"
	"mdlog/internal/opt"
)

// OptLevel registers -O, -O0 and -O1 on fs and returns a resolver to
// call after parsing. -O0/-O1 win over -O; giving both shorthands is
// an error.
func OptLevel(fs *flag.FlagSet) func() (opt.Level, error) {
	level := fs.String("O", "1", "optimizer level: 0 (off) or 1 (full)")
	o0 := fs.Bool("O0", false, "disable the compile-time optimizer (same as -O 0)")
	o1 := fs.Bool("O1", false, "full optimization (same as -O 1; the default)")
	return func() (opt.Level, error) {
		if *o0 && *o1 {
			return 0, fmt.Errorf("-O0 and -O1 are mutually exclusive")
		}
		if *o0 {
			return opt.O0, nil
		}
		if *o1 {
			return opt.O1, nil
		}
		return opt.ParseLevel(*level)
	}
}

// Engine registers -engine on fs and returns a resolver to call after
// parsing; any value but a serving engine yields
// mdlog.ParseEngineFlag's error, which names the valid options.
func Engine(fs *flag.FlagSet) func() (mdlog.Engine, error) {
	name := fs.String("engine", "linear", "serving engine: linear or bitmap (the reference engines seminaive, naive and lit are library-only oracles)")
	return func() (mdlog.Engine, error) { return mdlog.ParseEngineFlag(*name) }
}
