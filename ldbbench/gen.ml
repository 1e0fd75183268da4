(** Seeded workload generators and the OCaml oracle for them.

    Everything a workload feeds the debugger — C programs, breakpoint
    choices, assignments, wire scripts, checkpoint spacings, reverse
    moves — comes from the seed, and every value the debugger is asked
    for is computed here from C semantics, never by asking the debugger.
    Seeds vary content and order; sizes and the mix of shapes are fixed
    multisets, so that medians do not drift from seed to seed. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]
let between st lo hi = lo + Random.State.int st (hi - lo + 1)

let shuffle st (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** C [int] arithmetic on the 32-bit targets. *)
let wrap32 n =
  let n = n land 0xffffffff in
  if n >= 0x80000000 then n - 0x1_0000_0000 else n

(** A source file built line by line, so generators know the line of
    every statement they emit. *)
module Src = struct
  type t = { buf : Buffer.t; mutable line : int }

  let create () = { buf = Buffer.create 4096; line = 0 }

  let add t fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string t.buf s;
        Buffer.add_char t.buf '\n';
        t.line <- t.line + 1;
        t.line)
      fmt

  let line t fmt = Printf.ksprintf (fun s -> ignore (add t "%s" s)) fmt
  let contents t = Buffer.contents t.buf
end

(* --- cold_start: multi-unit programs sized like bench_symtab ------------ *)

let cold_units = 8
let cold_procs_per_unit = 12

type cold_proc = { cp_name : string; cp_arg : int }

type cold_program = {
  co_sources : (string * string) list;
  co_procs : cold_proc array;  (** every procedure, called once each by main *)
}

(** [cold_units] units of [cold_procs_per_unit] small procedures; main
    calls each exactly once with its own argument, in a seeded order, so
    a breakpoint on any of them first stops with that argument. *)
let cold_program st ~(tag : int) : cold_program =
  let prefix = String.init 2 (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26)) in
  let name u i = Printf.sprintf "%s%d_u%d_%d" prefix tag u i in
  let procs =
    Array.init (cold_units * cold_procs_per_unit) (fun k ->
        { cp_name = name (k / cold_procs_per_unit) (k mod cold_procs_per_unit);
          cp_arg = between st 1 999 })
  in
  let unit_source u =
    let s = Src.create () in
    for i = 0 to cold_procs_per_unit - 1 do
      Src.line s "int %s(int x)" (name u i);
      Src.line s "{";
      Src.line s "    int a;";
      Src.line s "    int b;";
      Src.line s "    a = x + %d;" (between st 1 99);
      Src.line s "    b = a * %d;" (between st 2 9);
      Src.line s "    a = b - x;";
      Src.line s "    return a;";
      Src.line s "}"
    done;
    if u = 0 then begin
      Src.line s "int main(void)";
      Src.line s "{";
      Src.line s "    int r;";
      Src.line s "    r = 0;";
      Array.iter
        (fun p -> Src.line s "    r = r + %s(%d);" p.cp_name p.cp_arg)
        (shuffle st procs);
      Src.line s "    printf(\"%%d\\n\", r);";
      Src.line s "    return 0;";
      Src.line s "}"
    end;
    Src.contents s
  in
  { co_sources = List.init cold_units (fun u -> (Printf.sprintf "u%d.c" u, unit_source u));
    co_procs = procs }

(* --- inspect: a recursion refreshed at every stop ----------------------- *)

(** Recursion depths: every depth in 8..24 equally often, seeded order. *)
let inspect_depths = Array.init 17 (fun i -> 8 + i)
let inspect_runs_per_depth = 4

type inspect_program = {
  in_sources : (string * string) list;
  in_file : string;
  in_break_line : int;  (** the line in [leaf] after [t] is assigned *)
  in_k1 : int;
  in_k2 : int;
  in_runs : (int * int) array;  (** (depth, initial acc) of each call from main *)
}

(** [main] calls [walk(depth, acc)] once per run; [walk] recurses to
    depth 0 and calls [leaf], where the breakpoint sits.  [walk]'s local
    [loc] is read after the recursive call returns, so a store into any
    frame's [loc] changes the value main accumulates in [s]. *)
let inspect_program st : inspect_program =
  let k1 = between st 2 9 and k2 = between st 1 40 in
  let depths =
    shuffle st
      (Array.concat (List.init inspect_runs_per_depth (fun _ -> inspect_depths)))
  in
  let runs = Array.map (fun d -> (d, between st 1 999)) depths in
  let s = Src.create () in
  Src.line s "int total;";
  Src.line s "int leaf(int v)";
  Src.line s "{";
  Src.line s "    int t;";
  Src.line s "    t = v * %d + 1;" k1;
  let break_line = Src.add s "    total = total + t;" in
  Src.line s "    return t;";
  Src.line s "}";
  Src.line s "int walk(int n, int acc)";
  Src.line s "{";
  Src.line s "    int loc;";
  Src.line s "    int r;";
  Src.line s "    loc = acc + n * %d;" k2;
  Src.line s "    if (n > 0)";
  Src.line s "        r = walk(n - 1, loc);";
  Src.line s "    else";
  Src.line s "        r = leaf(loc);";
  Src.line s "    return r + loc;";
  Src.line s "}";
  Src.line s "int main(void)";
  Src.line s "{";
  Src.line s "    int s;";
  Src.line s "    s = 0;";
  Array.iter (fun (d, a) -> Src.line s "    s = s + walk(%d, %d);" d a) runs;
  Src.line s "    printf(\"%%d\\n\", s);";
  Src.line s "    return 0;";
  Src.line s "}";
  { in_sources = [ ("walk.c", Src.contents s) ]; in_file = "walk.c";
    in_break_line = break_line; in_k1 = k1; in_k2 = k2; in_runs = runs }

(** What a value prints as: a number, or the validity warning for a
    local no assignment has reached yet. *)
type shown = Int of int | Uninit

(** The frames at the stop inside run [(depth, acc)], topmost first:
    function name and (variable, value) pairs in declaration order.
    [s] is main's accumulator before this run. *)
let inspect_frames (p : inspect_program) ~(depth : int) ~(acc : int) ~(s : int) :
    (string * (string * shown) list) list =
  (* loc of walk(k) for k = depth .. 0, with the acc each received *)
  let rec walks k acc rest =
    let loc = wrap32 (acc + (k * p.in_k2)) in
    let fr = ("walk", [ ("n", Int k); ("acc", Int acc); ("loc", Int loc); ("r", Uninit) ]) in
    if k = 0 then (loc, fr :: rest) else walks (k - 1) loc (fr :: rest)
  in
  let v, walk_frames = walks depth acc [] in
  let t = wrap32 ((v * p.in_k1) + 1) in
  (("leaf", [ ("v", Int v); ("t", Int t) ]) :: walk_frames) @ [ ("main", [ ("s", Int s) ]) ]

(** The value [walk(depth, acc)] returns when [delta] was added to one
    frame's [loc] while it was suspended. *)
let inspect_result (p : inspect_program) ~(depth : int) ~(acc : int) ~(delta : int) : int =
  let rec go k acc =
    let loc = wrap32 (acc + (k * p.in_k2)) in
    let r = if k = 0 then wrap32 ((loc * p.in_k1) + 1) else go (k - 1) loc in
    wrap32 (r + loc)
  in
  wrap32 (go depth acc + delta)

(* --- serve: a short script per wire session ----------------------------- *)

type serve_program = {
  sv_sources : (string * string) list;
  sv_x : int;  (** [once]'s first argument *)
  sv_y : int;  (** [once]'s second argument *)
  sv_k : int;  (** [work]'s second argument *)
  sv_n : int;  (** [work] is called for n = 1 .. sv_n *)
}

let serve_program st : serve_program =
  let x = between st 1 999 and y = between st 1 999 and k = between st 2 50 in
  let n = 40 in
  let s = Src.create () in
  Src.line s "int total;";
  Src.line s "int once(int x, int y)";
  Src.line s "{";
  Src.line s "    int z;";
  Src.line s "    z = x * 3 + y;";
  Src.line s "    total = total + z;";
  Src.line s "    return z;";
  Src.line s "}";
  Src.line s "int work(int n, int k)";
  Src.line s "{";
  Src.line s "    int a;";
  Src.line s "    a = n * k + %d;" (between st 1 99);
  Src.line s "    total = total + a;";
  Src.line s "    return a;";
  Src.line s "}";
  Src.line s "int main(void)";
  Src.line s "{";
  Src.line s "    int i;";
  Src.line s "    once(%d, %d);" x y;
  Src.line s "    for (i = 1; i <= %d; i++)" n;
  Src.line s "        work(i, %d);" k;
  Src.line s "    printf(\"%%d\\n\", total);";
  Src.line s "    return 0;";
  Src.line s "}";
  { sv_sources = [ ("serve.c", Src.contents s) ]; sv_x = x; sv_y = y; sv_k = k; sv_n = n }

(** One wire session's script.  [Plain] stops in [once]; [Cond] stops in
    [work] where a nub-side condition [n == c] first holds.  Sessions pick
    either with even odds. *)
type serve_script = Plain | Cond of int

(* --- timetravel: a recorded call loop walked backwards ------------------ *)

type travel_program = {
  tt_sources : (string * string) list;
  tt_a : int;
  tt_b : int;
  tt_period : int;  (** [mark] runs every [tt_period] iterations *)
  tt_marks : int;  (** stops the recording makes at [mark] *)
  tt_iters : int;  (** loop iterations to exit: fixed, so run length is too *)
}

let travel_marks = 20

let travel_program st : travel_program =
  let a = between st 1 9 and b = between st 0 99 in
  let period = between st 28 32 in
  let iters = 704 in
  let s = Src.create () in
  Src.line s "int total;";
  Src.line s "int marks;";
  Src.line s "void bump(int k)";
  Src.line s "{";
  Src.line s "    total = total + k;";
  Src.line s "}";
  Src.line s "void mark(int i)";
  Src.line s "{";
  Src.line s "    marks = marks + 1;";
  Src.line s "}";
  Src.line s "int main(void)";
  Src.line s "{";
  Src.line s "    int i;";
  Src.line s "    for (i = 1; i <= %d; i++) {" iters;
  Src.line s "        bump(i * %d + %d);" a b;
  Src.line s "        if (i %% %d == 0)" period;
  Src.line s "            mark(i);";
  Src.line s "    }";
  Src.line s "    printf(\"%%d\\n\", total);";
  Src.line s "    return 0;";
  Src.line s "}";
  { tt_sources = [ ("loop.c", Src.contents s) ]; tt_a = a; tt_b = b; tt_period = period;
    tt_marks = travel_marks; tt_iters = iters }

(** [total] after iterations 1 .. i. *)
let travel_total (p : travel_program) (i : int) : int =
  wrap32 ((p.tt_a * i * (i + 1) / 2) + (p.tt_b * i))

(** A checkpoint spacing per session, in instructions: the run to exit
    is ~25k instructions, so 6 to 12 checkpoints. *)
let travel_spacing st = between st 2048 4096

(** Reverse moves from one recorded stop to the previous: up to two
    reverse steps (which stay inside the call sequence that led to the
    stop), then one reverse continue. *)
let travel_rsteps st = between st 0 2
