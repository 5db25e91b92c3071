#!/bin/sh
# Lists each value exported by a lib/*/*.mli that no .ml file under lib,
# bin, bench, examples, perfbench or test uses outside its own module's
# .ml, and exits 1 when it lists any.  Comments and string literals are
# skipped, and interfaces are read only for their declarations, so a doc
# comment that cites a value is not a use.  A use of value [v] of module
# [M] is one of:
# - a qualified name, [M.v] or [Dlz_lib.M.v];
# - a bare [v] in a file that opens [M] ([open M], [let open M in],
#   [M.( ... )]);
# - [X.v] under an alias [module X = ...M];
# - [Sub.v] for a value of submodule [Sub] of [M] ([M.Sub.v], or [Sub]
#   through an alias or an open of [M]);
# - any value of [M], when [M] is a functor's argument ([Map.Make (M)]).
# A module name resolves as in dune's wrapped libraries: the file's own
# alias first, then a library ([Dlz_obs]), then a module of the file's
# own library, then a module or submodule of what the file opens.  So
# [Registry] is the engine's in lib/engine, the metrics plane's in
# lib/obs, and elsewhere whichever the file's alias names.  A module that
# [include]s another passes its uses on (Dlz_serve.Jsonx is
# Dlz_obs.Jsonx).  `dune build @exports-ci`, or `sh test/exports.sh` from
# the repository root.
cd "$(dirname "$0")/.." || exit 2
exec awk '
    # Line [s] with comments, string and character literals blanked; the
    # comment depth and an open string carry over to the next line.
    function strip(s,   out, q, tok) {
      gsub(/'"'"'[^'"'"'\\]'"'"'|'"'"'\\[^'"'"']*'"'"'/, " ", s)
      out = ""
      while (s != "") {
        if (quote != "") {
          if (!(q = index(s, quote))) return out
          s = substr(s, q + length(quote)); quote = ""
        } else if (instr) {
          if (!match(s, /^([^"\\]|\\.)*"/)) return out
          s = substr(s, RLENGTH + 1); instr = 0
        } else {
          if (depth ? !match(s, /\(\*|\*\)|"|\{[a-z_]*\|/) : !match(s, /\(\*|"|\{[a-z_]*\|/))
            return depth ? out : out s
          tok = substr(s, RSTART, RLENGTH)
          if (!depth) out = out substr(s, 1, RSTART - 1) " "
          s = substr(s, RSTART + RLENGTH)
          if (tok == "(*") depth++
          else if (tok == "*)") depth--
          else if (tok == "\"") instr = 1
          else quote = "|" substr(tok, 2, length(tok) - 2) "}"
        }
      }
      return out
    }
    function capital(w) { return toupper(substr(w, 1, 1)) substr(w, 2) }
    # The module that name [a] denotes in file [f]: "lib/M", possibly
    # with submodules ("deptest/Dirvec.Set"), "@lib" for a library, or ""
    # for one this check does not cover.
    function head(a, f,   t, i) {
      if ((f, a) in alias) {
        if ((f, a) in busy || alias[f, a] == "") return ""
        busy[f, a] = 1; t = path(alias[f, a], f); delete busy[f, a]
        return t
      }
      if (a in libdir) return "@" libdir[a]
      if ((dir[f] "/" a) in mod) return dir[f] "/" a
      for (i = nseen[f]; i >= 1; i--)
        if (opened[f, i] != "" && (t = inside(opened[f, i], a)) != "") return t
      return ""
    }
    # Component [a] of module or library [t].
    function inside(t, a,   k) {
      if (t ~ /^@/) { k = substr(t, 2) "/" a; return (k in mod) ? k : "" }
      if ((t, a) in submod) return t "." a
      if ((t, a) in subalias) return path(subalias[t, a], subfile[t, a])
      return ""
    }
    function path(p, f,   c, n, i, t) {
      n = split(p, c, ".")
      t = head(c[1], f)
      for (i = 2; i <= n && t != ""; i++) t = inside(t, c[i])
      return t
    }
    function included(t) { return (t in incl) ? path(incl[t], inclfile[t]) : "" }
    # File [f] uses value [v] of [t], and so of what [t] includes.
    function use(t, v, f) {
      for (; t != ""; t = included(t))
        if ((t, v) in home && own[t] != f) used[t, v] = 1
    }
    FNR == 1 {
      depth = 0; instr = 0; quote = ""
      kind = FILENAME ~ /dune$/ ? "dune" : FILENAME ~ /\.mli$/ ? "mli" : "ml"
      if (kind != "dune") {
        f = FILENAME; files[++nf] = f
        d = f; sub(/\/[^\/]*$/, "", d); sub(/^lib\//, "", d)
        m = f; sub(/.*\//, "", m); sub(/\.mli?$/, "", m)
        self[f] = d "/" capital(m)
        if (f ~ /^lib\//) { dir[f] = d; mod[self[f]] = 1 }
        sd = 0; scope[0] = self[f]; pend = ""; after = ""
      }
    }
    kind == "dune" {
      if (match($0, /\(name dlz_[a-z_]+\)/)) {
        d = FILENAME; sub(/\/dune$/, "", d); sub(/^lib\//, "", d)
        libdir[capital(substr($0, RSTART + 6, RLENGTH - 7))] = d
      }
      next
    }
    {
      s = strip($0); text[nf, ++nl[nf]] = s
      if (match(s, /(^|[^A-Za-z0-9_'"'"'])module +[A-Z][A-Za-z0-9_'"'"']* *=/)) {
        r = substr(s, RSTART + RLENGTH); a = substr(s, RSTART, RLENGTH)
        sub(/ *=$/, "", a); sub(/.*module +/, "", a)
        alias[f, a] = match(r, /^ *[A-Z][A-Za-z0-9_.'"'"']*/) ? substr(r, RSTART, RLENGTH) : ""
        sub(/^ */, "", alias[f, a])
        if (kind == "mli" && sd == 0 && alias[f, a] != "") {
          subalias[self[f], a] = alias[f, a]; subfile[self[f], a] = f
        }
      }
      if (kind == "ml" && match(s, /^include +[A-Z][A-Za-z0-9_.]*/)) {
        incl[self[f]] = substr(s, 9, RLENGTH - 8); inclfile[self[f]] = f
      }
      if (kind == "ml") next
      # An interface: each [val v] in the module or submodule around it
      # (scope[sd], "" inside a signature with no module name).
      gsub(/\( *[-+*\/<>=@^|&$%.:~?!]+ *\)/, " OP ", s)
      gsub(/[^A-Za-z0-9_.'"'"']+/, " ", s); n = split(s, w, " ")
      for (i = 1; i <= n; i++) {
        t = w[i]
        if (after == "module") pend = (t ~ /^[A-Z]/) ? t : ""
        else if (after == "val" && t ~ /^[a-z_]/ && (k = scope[sd]) != "") {
          own[k] = substr(f, 1, length(f) - 1)
          home[k, t] = f; val[k, ++nval[k]] = t
        }
        if (t == "sig" || t == "struct" || t == "object") {
          k = (pend == "" || scope[sd] == "") ? "" : scope[sd] "." pend
          if (k != "") submod[scope[sd], pend] = 1
          scope[++sd] = k; pend = ""
        } else if (t == "end" && sd > 0) sd--
        after = t
      }
    }
    END {
      # Opens first, each resolved through the ones before it, so that a
      # module name may resolve through any of them anywhere in its file.
      for (i = 1; i <= nf; i++) {
        f = files[i]
        for (l = 1; l <= nl[i]; l++) {
          s = text[i, l]
          while (match(s, /(^|[^A-Za-z0-9_'"'"'])open!? +[A-Z][A-Za-z0-9_.'"'"']*|[A-Z][A-Za-z0-9_.'"'"']*\. *[\(\[{]/)) {
            o = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            k = ++nseen[f]
            if (sub(/.*open!? +/, "", o)) wide[f, k] = 1
            else sub(/\. *.$/, "", o)
            opened[f, k] = path(o, f)
          }
        }
      }
      # Uses.  A local open [M.( ... )] reaches the bare names up to its
      # closing bracket, an [open] every bare name of the file.
      for (i = 1; i <= nf; i++) {
        f = files[i]
        if (f ~ /\.mli$/) continue
        split("", bare); depth = 0; nloc = 0
        for (l = 1; l <= nl[i]; l++) {
          s = text[i, l]
          while (match(s, /Make *\( *[A-Z][A-Za-z0-9_.'"'"']* *\)/)) {
            o = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            sub(/^Make *\( */, "", o); sub(/ *\)$/, "", o)
            for (t = path(o, f); t != ""; t = included(t))
              for (j = 1; j <= nval[t]; j++) use(t, val[t, j], f)
          }
          s = text[i, l]
          while (match(s, /[A-Za-z_][A-Za-z0-9_.'"'"']*|[\(\[{}\]\)]/)) {
            t = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            if (t ~ /^[\(\[{]/) depth++
            else if (t ~ /^[}\]\)]/) {
              if (nloc && depth == scope[nloc]) nloc--
              depth--
            } else if (t ~ /^[A-Z].*\.$/) {
              local[++nloc] = path(substr(t, 1, length(t) - 1), f)
              scope[nloc] = depth + 1
            } else if (t ~ /^[a-z_]/) {
              sub(/\..*/, "", t); bare[t] = 1
              for (k = 1; k <= nloc; k++) use(local[k], t, f)
            } else if (match(t, /\.[a-z_]/)) {
              v = substr(t, RSTART + 1); sub(/\..*/, "", v)
              use(path(substr(t, 1, RSTART - 1), f), v, f)
            }
          }
        }
        for (k = 1; k <= nseen[f]; k++)
          if ((f, k) in wide)
            for (t = opened[f, k]; t != ""; t = included(t))
              for (j = 1; j <= nval[t]; j++)
                if (val[t, j] in bare) use(t, val[t, j], f)
      }
      for (key in home)
        if (!(key in used)) {
          split(key, kv, SUBSEP); t = kv[1]; sub(/^[^.]*\.?/, "", t)
          print home[key] ": val " t (t == "" ? "" : ".") kv[2] | "sort"
          bad = 1
        }
      close("sort")
      exit bad
    }' lib/*/dune lib/*/*.mli $(find lib bin bench examples perfbench test \
      -name '*.ml')
