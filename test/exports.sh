#!/bin/sh
# Lists each value exported by a lib/*/*.mli that no file outside its own
# module names: no .ml or cram .t file under lib, bin, bench, examples,
# perfbench or test other than the module's .ml.  Interfaces are not
# searched, so a doc comment that cites a value does not count as a use.
# Exits 1 when it lists any.  `dune build @exports-ci`, or
# `sh test/exports.sh` from the repository root.
cd "$(dirname "$0")/.." || exit 2
exec awk '
    FNR == 1 { mli = FILENAME ~ /\.mli$/; own = FILENAME; sub(/i$/, "", own) }
    mli {
      if (match($0, /^ *val [a-z_][A-Za-z0-9_]*/)) {
        n++; name[n] = substr($0, RSTART, RLENGTH); sub(/^ *val /, "", name[n])
        home[n] = own
      }
      next
    }
    {
      gsub(/[^A-Za-z0-9_]+/, " ")
      for (i = 1; i <= NF; i++)
        if (!($i in first)) first[$i] = FILENAME
        else if (first[$i] != FILENAME) multi[$i] = 1
    }
    END {
      for (i = 1; i <= n; i++) {
        w = name[i]
        if (!(w in multi) && (!(w in first) || first[w] == home[i])) {
          print home[i] "i: val " w; bad = 1
        }
      }
      exit bad
    }' lib/*/*.mli $(find lib bin bench examples perfbench test -type f \
      \( -name '*.ml' -o -name '*.t' \))
