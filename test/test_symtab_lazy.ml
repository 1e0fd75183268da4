(** Demand-driven symbol tables: forcing one unit never touches another,
    lazy and eager lookup agree on every architecture, a unit whose body
    fails stays retryable, compressed tables behave identically, and the
    accumulators scale to many-unit programs. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Symtab = Ldb_ldb.Symtab
module V = Ldb_pscript.Value
module I = Ldb_pscript.Interp

let check = Alcotest.check

(* two units; afun/bfun names make the demand hints unambiguous *)
let a_c =
  {|
int bfun(int x);
static int astatic;
int aglobal = 7;
int afun(int n)
{
    int a;
    a = n + 1;
    astatic = a;
    return a;
}
int main(void)
{
    printf("%d\n", bfun(afun(1)));
    return 0;
}
|}

let b_c =
  {|
static int bstatic;
int bfun(int x)
{
    int b;
    b = x * 2;
    bstatic = b;
    return b;
}
|}

let two_unit_session ?compress ~arch () =
  Testkit.debug_session ?compress ~arch [ ("a.c", a_c); ("b.c", b_c) ]

(* --- laziness ------------------------------------------------------------------ *)

let test_lazy_attach () =
  List.iter
    (fun arch ->
      let s = two_unit_session ~arch () in
      let st = s.Testkit.tg.Ldb.tg_symtab in
      (* attach forces nothing *)
      check Alcotest.(list string) (Arch.name arch ^ " attach") [] (Symtab.forced_units st);
      check Alcotest.int (Arch.name arch ^ " attach bytes") 0 (Symtab.forced_bytes st);
      check Alcotest.int (Arch.name arch ^ " attach runs no body") 0 (Symtab.force_attempts st);
      (* source files are known without forcing *)
      check Alcotest.(list string) (Arch.name arch ^ " files") [ "a.c"; "b.c" ]
        (Symtab.source_files st);
      (* a breakpoint in afun forces a.c only *)
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "afun" : int);
      check Alcotest.(list string) (Arch.name arch ^ " one unit forced") [ "a.c" ]
        (Symtab.forced_units st);
      check Alcotest.int (Arch.name arch ^ " one body run") 1 (Symtab.force_attempts st);
      Alcotest.(check bool) (Arch.name arch ^ " partial bytes") true
        (Symtab.forced_bytes st < Symtab.total_bytes st);
      (* a query into b.c forces exactly the other unit *)
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
      check Alcotest.(list string) (Arch.name arch ^ " both forced") [ "a.c"; "b.c" ]
        (Symtab.forced_units st);
      check Alcotest.int (Arch.name arch ^ " one more body run") 2 (Symtab.force_attempts st))
    Arch.all

let test_line_queries_by_file () =
  let arch = Arch.Mips in
  let s = two_unit_session ~arch () in
  let st = s.Testkit.tg.Ldb.tg_symtab in
  (* line 7 exists in both units; restricting to b.c forces only b.c *)
  let addrs = Ldb.break_line ~file:"b.c" s.Testkit.d s.Testkit.tg ~line:7 in
  Alcotest.(check bool) "stops found" true (addrs <> []);
  check Alcotest.(list string) "only b.c forced" [ "b.c" ] (Symtab.forced_units st);
  check Alcotest.int "one body run" 1 (Symtab.force_attempts st);
  (* the unrestricted query forces the remaining covering unit and
     returns stops from both *)
  let all = Ldb.break_line s.Testkit.d s.Testkit.tg ~line:7 in
  Alcotest.(check bool) "more stops across units" true (List.length all >= List.length addrs);
  check Alcotest.(list string) "both forced" [ "a.c"; "b.c" ] (Symtab.forced_units st)

let test_stepping_forces_one_unit () =
  (* the single-step loop queries stop addresses constantly; make sure the
     pc index keeps it inside the procedure's own unit *)
  let arch = Arch.Mips in
  let s = two_unit_session ~arch () in
  let st = s.Testkit.tg.Ldb.tg_symtab in
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
  (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.fail "did not stop at bfun");
  ignore (Testkit.ok (Ldb.step_source s.Testkit.d s.Testkit.tg) : Ldb.state);
  let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
  check Alcotest.string "still in bfun" "bfun" (Ldb.frame_function s.Testkit.d s.Testkit.tg fr);
  (* stepping inside bfun needed b.c (for its stops) but never a.c *)
  check Alcotest.(list string) "a.c untouched" [ "b.c" ] (Symtab.forced_units st)

(* --- lazy/eager agreement ----------------------------------------------------- *)

let test_lazy_eager_agree () =
  List.iter
    (fun arch ->
      let lazy_s = two_unit_session ~arch () in
      let eager_s = two_unit_session ~arch () in
      Ldb.force_symbols eager_s.Testkit.d eager_s.Testkit.tg;
      let stop s = ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
        match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
        | Ldb.Stopped _ -> Ldb.top_frame s.Testkit.d s.Testkit.tg
        | _ -> Alcotest.failf "%s: did not stop" (Arch.name arch)
      in
      let fl = stop lazy_s and fe = stop eager_s in
      (* resolution order (locals -> statics -> externs) is unchanged:
         the same names print the same values (or fail identically)
         either way *)
      let printed s fr name =
        match Ldb.print_value s.Testkit.d s.Testkit.tg fr name with
        | v -> v
        | exception Ldb.Error m -> "error: " ^ m
      in
      List.iter
        (fun name ->
          check Alcotest.string
            (Printf.sprintf "%s %s" (Arch.name arch) name)
            (printed eager_s fe name) (printed lazy_s fl name))
        [ "x"; "b"; "bstatic"; "aglobal"; "nosuch" ];
      (* indexed lookups agree with the linear-scan baseline *)
      let st = lazy_s.Testkit.tg.Ldb.tg_symtab in
      Ldb.force_symbols lazy_s.Testkit.d lazy_s.Testkit.tg;
      List.iter
        (fun name ->
          let ix = Symtab.proc_by_name st name in
          let sc = Symtab.proc_by_name_scan st name in
          Alcotest.(check bool)
            (Printf.sprintf "%s proc_by_name %s" (Arch.name arch) name)
            true
            (match (ix, sc) with Some a, Some b -> a == b | None, None -> true | _ -> false))
        [ "afun"; "bfun"; "main"; "nosuch" ];
      List.iter
        (fun line ->
          let names stops =
            List.sort compare
              (List.map (fun s -> (Symtab.entry_name s.Symtab.stop_proc, s.Symtab.stop_index)) stops)
          in
          check
            Alcotest.(list (pair string int))
            (Printf.sprintf "%s stops@%d" (Arch.name arch) line)
            (names (Symtab.stops_at_line_scan st ~line))
            (names (Symtab.stops_at_line st ~line)))
        [ 5; 6; 7; 8; 99 ])
    Arch.all

(* --- failure path -------------------------------------------------------------- *)

let crafted_symtab ~units_ps =
  let interp = Ldb_pscript.Ps.create () in
  let defs = V.dict_create () in
  I.begin_dict interp defs;
  I.run_string interp (Printf.sprintf "/__symtab << /architecture (mips) /units << %s >> >> def" units_ps);
  I.end_dict interp;
  let symtab_dict =
    match V.dict_get defs "__symtab" with
    | Some v -> V.to_dict v
    | None -> Alcotest.fail "no __symtab"
  in
  (interp, Symtab.make ~interp ~symtab_dict)

(* [/RepairXYZ load] passes pslint (a name looked up at run time) but fails
   when the body runs, until [repair] binds the name: the quarantine and
   retry paths work with the load-time check on *)
let repair interp = I.run_string interp "/RepairXYZ 0 def"

let test_failing_unit_is_retryable () =
  let body = "/RepairXYZ load pop /UNITRESULT$u1 << /procs [ << /name (p1) >> ] >> def" in
  let interp, st =
    crafted_symtab
      ~units_ps:(Printf.sprintf "(u1.c) << /body (%s) /tag (u1) >>" (Ldb_cc.Psemit.ps_escape body))
  in
  (* the body raises: the unit must not latch as forced *)
  (match Symtab.force_unit st ~file:"u1.c" with
  | () -> Alcotest.fail "force of a broken unit succeeded"
  | exception _ -> ());
  check Alcotest.(list string) "still unforced" [] (Symtab.forced_units st);
  check Alcotest.int "the body ran" 1 (Symtab.force_attempts st);
  (* the table stays usable: a second failure is identical *)
  (match Symtab.force_all st with
  | () -> Alcotest.fail "force_all of a broken unit succeeded"
  | exception _ -> ());
  (* repair the environment and retry the same unit *)
  repair interp;
  Symtab.force_unit st ~file:"u1.c";
  check Alcotest.(list string) "forced after repair" [ "u1.c" ] (Symtab.forced_units st);
  Alcotest.(check bool) "lookup works after repair" true (Symtab.proc_by_name st "p1" <> None)

(** A unit whose body fails is {e quarantined}: demand-driven searches
    route around it and never re-execute the broken body, listing names
    the unit and why, and only an explicit per-unit force (the repair
    path) lifts the quarantine. *)
let test_quarantine_routes_around () =
  let bad = "/RepairXYZ load pop /UNITRESULT$u1 << /procs [ << /name (p1) >> ] >> def" in
  let good = "/UNITRESULT$u2 << /procs [ << /name (p2) >> ] >> def" in
  let interp, st =
    crafted_symtab
      ~units_ps:
        (Printf.sprintf "(u1.c) << /body (%s) /tag (u1) >> (u2.c) << /body (%s) /tag (u2) >>"
           (Ldb_cc.Psemit.ps_escape bad) (Ldb_cc.Psemit.ps_escape good))
  in
  (* an unhinted search sweeps the units: u1 breaks (and is
     quarantined), but the search routes around it and finds p2 *)
  Alcotest.(check bool) "p2 found despite broken u1" true (Symtab.proc_by_name st "p2" <> None);
  check Alcotest.(list string) "only u2 latched" [ "u2.c" ] (Symtab.forced_units st);
  (match Symtab.quarantined_units st with
  | [ ("u1.c", reason) ] -> Alcotest.(check bool) "failure reason recorded" true (reason <> "")
  | q ->
      Alcotest.failf "expected u1.c quarantined, got [%s]" (String.concat "; " (List.map fst q)));
  let forces_after_first = Symtab.force_attempts st in
  check Alcotest.int "both bodies ran once" 2 forces_after_first;
  (* a second sweep must not re-execute the broken body *)
  Alcotest.(check bool) "p1 not found" true (Symtab.proc_by_name st "p1" = None);
  check Alcotest.int "quarantined unit not re-forced" forces_after_first
    (Symtab.force_attempts st);
  (* line queries degrade to the units that work, typed-ly *)
  (match Symtab.stops_at_line st ~file:"u1.c" ~line:1 with
  | _ -> Alcotest.fail "line query into a quarantined unit succeeded"
  | exception Symtab.Error m ->
      Alcotest.(check bool) "error names the quarantine" true
        (let has_sub s sub =
           let n = String.length sub and h = String.length s in
           let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
           n = 0 || go 0
         in
         has_sub m "quarantined"));
  (* repair the environment; the explicit per-unit force lifts the
     quarantine and the unit joins the table *)
  repair interp;
  Symtab.force_unit st ~file:"u1.c";
  check Alcotest.(list (pair string string)) "quarantine lifted" [] (Symtab.quarantined_units st);
  Alcotest.(check bool) "p1 found after repair" true (Symtab.proc_by_name st "p1" <> None)

(* --- many units ----------------------------------------------------------------- *)

let test_many_units () =
  let n = 40 in
  let buf = Buffer.create 4096 in
  for i = 0 to n - 1 do
    let body =
      Printf.sprintf "/UNITRESULT$u%02d << /procs [ << /name (p%02d) >> ] >> def" i i
    in
    Buffer.add_string buf
      (Printf.sprintf "(u%02d.c) << /body (%s) /tag (u%02d) >> " i
         (Ldb_cc.Psemit.ps_escape body) i)
  done;
  let _, st = crafted_symtab ~units_ps:(Buffer.contents buf) in
  check Alcotest.int "unit count" n (Symtab.unit_count st);
  let procs = Symtab.procs st in
  check Alcotest.int "all procs collected" n (List.length procs);
  (* unit order (sorted by file) is preserved in the accumulated list *)
  check
    Alcotest.(list string)
    "proc order"
    (List.init n (Printf.sprintf "p%02d"))
    (List.map Symtab.entry_name procs);
  (* forcing again must not duplicate *)
  Symtab.force_all st;
  check Alcotest.int "idempotent" n (List.length (Symtab.procs st));
  Alcotest.(check bool) "indexed lookup" true (Symtab.proc_by_name st "p27" <> None)

(* --- compressed tables ----------------------------------------------------------- *)

let test_compressed_sessions () =
  List.iter
    (fun arch ->
      let s = two_unit_session ~compress:true ~arch () in
      let st = s.Testkit.tg.Ldb.tg_symtab in
      ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bfun" : int);
      (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.failf "%s: did not stop in compressed session" (Arch.name arch));
      let fr = Ldb.top_frame s.Testkit.d s.Testkit.tg in
      check Alcotest.string (Arch.name arch ^ " function") "bfun"
        (Ldb.frame_function s.Testkit.d s.Testkit.tg fr);
      (* only the queried unit was decoded and forced *)
      check Alcotest.(list string) (Arch.name arch ^ " forced") [ "b.c" ]
        (Symtab.forced_units st);
      (* a compressed and a plain session print identical values *)
      let plain = two_unit_session ~arch () in
      ignore (Ldb.break_function plain.Testkit.d plain.Testkit.tg "bfun" : int);
      (match Testkit.ok (Ldb.continue_ plain.Testkit.d plain.Testkit.tg) with
      | Ldb.Stopped _ -> ()
      | _ -> Alcotest.failf "%s: plain session did not stop" (Arch.name arch));
      let pf = Ldb.top_frame plain.Testkit.d plain.Testkit.tg in
      List.iter
        (fun name ->
          check Alcotest.string
            (Printf.sprintf "%s compressed %s" (Arch.name arch) name)
            (Ldb.print_value plain.Testkit.d plain.Testkit.tg pf name)
            (Ldb.print_value s.Testkit.d s.Testkit.tg fr name))
        [ "x"; "aglobal" ])
    Arch.all

(* --- pslint environment ------------------------------------------------------ *)

(* the debugger environment is built once per symbol table; each unit is
   checked against a copy of it, so what one body defines cannot leak into
   the check of the next *)
let test_lint_env_per_unit () =
  let module P = Ldb_pscheck.Pscheck in
  let interp = Ldb_pscript.Ps.create () in
  I.run_string interp "/st << /architecture (mips) >> def";
  let st = Symtab.make ~interp ~symtab_dict:(V.to_dict (I.lookup_exn interp "st")) in
  let a = "/helper (text) def /n 1 def" and b = "helper 1 add n exch" in
  let strings = List.map Ldb_pscheck.Lattice.finding_to_string in
  let lint file src =
    strings (Symtab.lint_findings st ~file src (I.scan_string interp ~name:"%string" src))
  in
  let fresh file src =
    strings (P.check_program ~env:(P.debugger_env ()) ~deep:true ~name:(file ^ ":pstab") src)
  in
  let want = (fresh "a.c" a, fresh "b.c" b) in
  if snd want = [] then Alcotest.fail "b.c must need a.c's definitions to be clean";
  let fa = lint "a.c" a in
  let fb = lint "b.c" b in
  check Alcotest.(pair (list string) (list string)) "A then B" want (fa, fb);
  let fb = lint "b.c" b in
  let fa = lint "a.c" a in
  check Alcotest.(pair (list string) (list string)) "B then A" want (fa, fb)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "symtab_lazy"
    [
      ( "laziness",
        [ case "attach forces nothing" test_lazy_attach;
          case "line queries by file" test_line_queries_by_file;
          case "stepping stays in one unit" test_stepping_forces_one_unit ] );
      ("agreement", [ case "lazy = eager on all targets" test_lazy_eager_agree ]);
      ( "failure",
        [ case "failing unit is retryable" test_failing_unit_is_retryable;
          case "quarantine routes around" test_quarantine_routes_around;
          case "many units" test_many_units ] );
      ("compression", [ case "compressed sessions" test_compressed_sessions ]);
      ("lint", [ case "environment copied per unit" test_lint_env_per_unit ]);
    ]
