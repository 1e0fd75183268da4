(** Tests for the embedded PostScript dialect: scanner, core operators,
    control flow, dictionaries, the stopped mechanism, deferred execution,
    the prettyprinter, and the debugging extensions. *)

module I = Ldb_pscript.Interp
module V = Ldb_pscript.Value
module Ps = Ldb_pscript.Ps

let check = Alcotest.check

(** Run source and return printed output. *)
let out src =
  let t = Ps.create () in
  I.run_string t src;
  I.take_output t

(** Run source and return the top of stack as text. *)
let top src =
  let t = Ps.create () in
  I.run_string t src;
  V.to_text (I.pop t)

let expect name src expected = check Alcotest.string name expected (out src)
let expect_top name src expected = check Alcotest.string name expected (top src)

(* --- scanner ------------------------------------------------------------- *)

let test_numbers () =
  expect_top "int" "42" "42";
  expect_top "negative" "-7" "-7";
  expect_top "real" "2.5" "2.5";
  expect_top "exponent" "1e3" "1000.0";
  expect_top "radix 16" "16#2a" "42";
  expect_top "radix 8" "8#17" "15";
  expect_top "radix 2" "2#1010" "10";
  expect_top "radix with letters" "16#00ff" "255"

let test_strings () =
  expect_top "simple" "(hello)" "hello";
  expect_top "nested parens" "(a(b)c)" "a(b)c";
  expect_top "escapes" {|(x\ny)|} "x\ny";
  expect_top "octal escape" {|(\101)|} "A";
  expect "string length" "(hi(nested)) length =" "10\n"

let test_comments () = expect_top "comment" "1 % junk ( ) { }\n2 add" "3"

let test_names () =
  expect_top "literal name" "/foo" "foo";
  expect "executable name undefined" "" "";
  match out "undefined_name_xyz" with
  | exception V.Error ("undefined", _) -> ()
  | _ -> Alcotest.fail "undefined name did not raise"

(* --- arithmetic and comparison ---------------------------------------------- *)

let test_arith () =
  expect_top "add" "1 2 add" "3";
  expect_top "mixed add" "1 2.5 add" "3.5";
  expect_top "sub" "10 3 sub" "7";
  expect_top "idiv" "17 5 idiv" "3";
  expect_top "mod" "17 5 mod" "2";
  expect_top "div real" "1 2 div" "0.5";
  expect_top "neg" "5 neg" "-5";
  expect_top "abs" "-3.5 abs" "3.5";
  expect_top "bitshift left" "1 4 bitshift" "16";
  expect_top "bitshift right" "16 -4 bitshift" "1";
  expect_top "sqrt" "16 sqrt" "4.0"

let test_compare () =
  expect_top "lt" "1 2 lt" "true";
  expect_top "string compare" "(abc) (abd) lt" "true";
  expect_top "eq num" "2 2.0 eq" "true";
  expect_top "ne" "1 2 ne" "true";
  expect_top "and bool" "true false and" "false";
  expect_top "and int" "12 10 and" "8";
  expect_top "not" "true not" "false"

(* --- stack ops ----------------------------------------------------------------- *)

let test_stack () =
  expect_top "exch" "1 2 exch pop" "2";
  expect_top "dup" "5 dup add" "10";
  expect_top "index" "10 20 30 2 index" "10";
  expect_top "copy" "1 2 2 copy pop pop pop" "1";
  expect "roll" "1 2 3 3 -1 roll pstack" "1\n3\n2\n";
  expect "count" "9 9 9 count = clear" "3\n";
  expect "counttomark" "mark 4 5 6 counttomark = cleartomark" "3\n"

(* --- control flow ----------------------------------------------------------------- *)

let test_control () =
  expect_top "if true" "1 true {10 add} if" "11";
  expect_top "ifelse" "false {1} {2} ifelse" "2";
  expect "for" "0 1 4 { cvs print ( ) print } for" "0 1 2 3 4 ";
  expect "for step" "10 -2 4 { cvs print ( ) print } for" "10 8 6 4 ";
  expect "repeat" "3 { (x) print } repeat" "xxx";
  expect_top "loop exit" "0 { 1 add dup 5 ge { exit } if } loop" "5";
  expect_top "exit in for" "0 1 100 { dup 3 ge { exit } if pop } for" "3";
  expect_top "stopped catches stop" "{ 1 2 stop 99 } stopped" "true";
  expect_top "stopped false" "{ 42 } stopped not" "true"

let test_forall () =
  expect "array forall" "[1 2 3] { cvs print } forall" "123";
  expect "string forall" "(AB) { cvs print ( ) print } forall" "65 66 ";
  expect "dict forall" "<< /b 2 /a 1 >> { exch print cvs print } forall" "a1b2"

(* --- dictionaries ------------------------------------------------------------------ *)

let test_dicts () =
  expect_top "def and lookup" "/x 42 def x" "42";
  expect_top "dict literal" "<< /a 1 /b 2 >> /b get" "2";
  expect_top "nested dict" "<< /t << /u 9 >> >> /t get /u get" "9";
  expect_top "known true" "<< /a 1 >> /a known" "true";
  expect_top "known false" "<< /a 1 >> /z known" "false";
  expect_top "begin/end scoping" "3 dict begin /v 7 def v end" "7";
  expect_top "length" "<< /a 1 /b 2 /c 3 >> length" "3";
  expect_top "store rebinds" "/g 1 def 5 dict begin /g 2 store end g" "2";
  expect_top "where finds" "/w 1 def /w where { /w get } { -1 } ifelse" "1";
  expect_top "integer keys" "<< 5 (five) >> 5 get" "five"

let test_dict_stack_rebinding () =
  (* the paper's architecture-switch mechanism: pushing a dictionary
     rebinds machine-dependent names *)
  expect_top "rebinding"
    "/Regset0 (r) def /archdict << /Regset0 (q) >> def archdict begin Regset0 end" "q"

(* --- arrays, procedures, conversion -------------------------------------------------- *)

let test_arrays () =
  expect_top "array get" "[10 20 30] 1 get" "20";
  expect_top "array put" "[10 20 30] dup 1 99 put 1 get" "99";
  expect_top "array length" "5 array length" "5";
  expect_top "aload" "[7 8] aload pop add" "15";
  expect_top "astore" "1 2 2 array astore 0 get" "1"

let test_exec_attr () =
  expect_top "cvx string executes" "(1 2 add) cvx exec" "3";
  expect_top "literal proc pushed" "{ 1 2 add } exec" "3";
  expect_top "xcheck proc" "{ } xcheck" "true";
  expect_top "xcheck literal" "[ ] xcheck" "false";
  expect_top "cvlit prevents execution" "{ 1 } cvlit type" "arraytype";
  (* executing a literal object pushes it: procedures interpreted at most
     once can be replaced with their results *)
  expect_top "literal replacement" "/p { 40 2 add } def /r p def r" "42"

let test_conversions () =
  expect_top "cvi real" "3.99 cvi" "3";
  expect_top "cvi string" "(123) cvi" "123";
  expect_top "cvr" "2 cvr" "2.0";
  expect_top "cvs" "17 cvs length" "2";
  expect_top "cvn" "(foo) cvn" "foo";
  expect_top "type int" "3 type" "integertype";
  expect_top "type mem" "LocalMemory type" "memorytype"

let test_immutable_strings () =
  match out "(abc) 0 65 put" with
  | exception V.Error ("invalidaccess", _) -> ()
  | _ -> Alcotest.fail "string put should be invalidaccess"

(* --- deferral (Sec. 5) ---------------------------------------------------------------- *)

let test_deferred_execution () =
  (* a quoted body reads as a string, then executes on demand *)
  expect_top "deferred" "/body (/answer 42 def) def body cvx exec answer" "42"

let test_deferred_nested_strings () =
  let t = Ps.create () in
  (* emulate a deferred symbol table body containing strings *)
  let inner = "/name (fib.c) def" in
  let escaped = Ldb_cc.Psemit.ps_escape inner in
  I.run_string t (Printf.sprintf "/b (%s) def b cvx exec name" escaped);
  check Alcotest.string "nested" "fib.c" (V.to_text (I.pop t))

let test_token_cache () =
  let t = Ps.create () in
  let _, misses0 = I.scan_stats t in
  I.run_string t "/v 1 def";
  let hits1, misses1 = I.scan_stats t in
  (* a string body is scanned exactly once... *)
  check Alcotest.int "first run scans" (misses0 + 1) misses1;
  I.run_string t "/v 1 def";
  I.run_string t "/v 1 def";
  let hits2, misses2 = I.scan_stats t in
  (* ...and re-executions reuse the cached token array *)
  check Alcotest.int "re-runs do not rescan" misses1 misses2;
  check Alcotest.int "re-runs hit the cache" (hits1 + 2) hits2

let test_token_cache_semantics () =
  (* cached re-execution must behave exactly like a fresh scan, including
     procedure collection and error positions *)
  let t = Ps.create () in
  let src = "/counter counter 1 add def { 1 2 add } exec" in
  I.run_string t "/counter 0 def";
  I.run_string t src;
  I.run_string t src;
  check Alcotest.string "sum" "3" (V.to_text (I.pop t));
  check Alcotest.string "sum" "3" (V.to_text (I.pop t));
  I.run_string t "counter";
  check Alcotest.string "executed twice" "2" (V.to_text (I.pop t))

(* --- prettyprinter ------------------------------------------------------------------------ *)

let test_prettyprinter () =
  let o = out "20 PPWidth ({) Put 0 Begin 0 1 9 { dup 0 ne {(, ) Put 0 Break} if cvs Put } for (}) Put End" in
  Alcotest.(check bool) "wrapped" true (String.contains o '\n');
  Alcotest.(check bool) "has content" true (String.length o > 20)

(* --- debugging extensions ------------------------------------------------------------------- *)

let test_locations () =
  expect_top "Absolute offset" "30 (r) Absolute LocOffset" "30";
  expect_top "Absolute space" "30 (r) Absolute LocSpace" "r";
  expect_top "Shifted" "100 (d) Absolute 8 Shifted LocOffset" "108";
  expect_top "DataLoc" "64 DataLoc LocSpace" "d";
  expect_top "Immediate fetch" "/m LocalMemory def m 1234 Immediate FetchI32" "1234"

let test_fetch_store () =
  expect_top "i32" "/m LocalMemory def m 0 DataLoc -42 StoreI32 m 0 DataLoc FetchI32" "-42";
  expect_top "u8" "/m LocalMemory def m 4 DataLoc 255 StoreI8 m 4 DataLoc FetchU8" "255";
  expect_top "i8 sign" "/m LocalMemory def m 4 DataLoc 255 StoreI8 m 4 DataLoc FetchI8" "-1";
  expect_top "i16" "/m LocalMemory def m 8 DataLoc -1000 StoreI16 m 8 DataLoc FetchI16" "-1000";
  expect_top "f64" "/m LocalMemory def m 16 DataLoc 2.5 StoreF64 m 16 DataLoc FetchF64" "2.5";
  expect_top "f32" "/m LocalMemory def m 24 DataLoc 1.5 StoreF32 m 24 DataLoc FetchF32" "1.5";
  expect_top "f80" "/m LocalMemory def m 32 DataLoc 0.1 StoreF80 m 32 DataLoc FetchF80" "0.1"

let test_fetch_string () =
  expect_top "FetchString"
    "/m LocalMemory def m 0 DataLoc 72 StoreI8 m 1 DataLoc 105 StoreI8 m 0 DataLoc 16 FetchString"
    "Hi"

let test_prelude_printers () =
  (* INT printer: mem loc typedict -> prints *)
  expect "INT printer"
    "/m LocalMemory def m 0 DataLoc 7 StoreI32 m 0 DataLoc << /printer {INT} >> print" "7";
  (* ARRAY printer over a little local array *)
  expect "ARRAY printer"
    {|/m LocalMemory def
      m 0 DataLoc 10 StoreI32 m 4 DataLoc 20 StoreI32 m 8 DataLoc 30 StoreI32
      m 0 DataLoc
      << /printer {ARRAY} /elemsize 4 /arraysize 12
         /elemtype << /printer {INT} >> >>
      print|}
    "{10, 20, 30}";
  (* STRUCT printer *)
  expect "STRUCT printer"
    {|/m LocalMemory def
      m 0 DataLoc 3 StoreI32 m 4 DataLoc 4 StoreI32
      m 0 DataLoc
      << /printer {STRUCT}
         /fields [ [ (x) 0 << /printer {INT} >> ] [ (y) 4 << /printer {INT} >> ] ] >>
      print|}
    "{x=3, y=4}";
  (* CHAR printer *)
  expect "CHAR printer"
    "/m LocalMemory def m 0 DataLoc 65 StoreI8 m 0 DataLoc << /printer {CHAR} >> print"
    "'A'"

let test_find_local () =
  expect_top "FindLocal hit"
    {|/S1 << /name (a) /uplink null >> def
      /S2 << /name (i) /uplink S1 >> def
      S2 (a) FindLocal { /name get } { (missing) } ifelse|}
    "a";
  expect_top "FindLocal miss"
    {|/S1 << /name (a) /uplink null >> def
      S1 (zz) FindLocal { (found) exch pop } { (missing) } ifelse|}
    "missing"

let test_concatstr () = expect_top "concatstr" "(foo) (bar) concatstr" "foobar"

let test_declsubst () =
  expect_top "array decl" "(int %s[20]) (a) DeclSubst" "int a[20]";
  expect_top "pointer decl" "(char *%s) (msg) DeclSubst" "char *msg";
  expect_top "no hole" "(double) (x) DeclSubst" "double x"

let test_interp_errors () =
  (match out "1 (x) add" with
  | exception V.Error ("typecheck", _) -> ()
  | _ -> Alcotest.fail "typecheck expected");
  (match out "pop" with
  | exception V.Error ("stackunderflow", _) -> ()
  | _ -> Alcotest.fail "stackunderflow expected");
  match out "[1 2] 5 get" with
  | exception V.Error ("rangecheck", _) -> ()
  | _ -> Alcotest.fail "rangecheck expected"

(* --- satellite fixes: roll, registration, positions ----------------------- *)

let test_roll_zero () =
  (* n = 0 is a no-op for any j, including negative *)
  expect_top "0 0" "1 2 0 0 roll" "2";
  expect_top "0 1" "1 2 0 1 roll" "2";
  expect_top "0 -1" "1 2 0 -1 roll" "2";
  expect_top "0 -5 empty-below" "7 0 -5 roll" "7";
  expect_top "plain" "1 2 3 3 -1 roll" "1"

let test_roll_negative_n () =
  match out "1 2 -1 5 roll" with
  | exception V.Error ("rangecheck", _) -> ()
  | _ -> Alcotest.fail "rangecheck expected for negative n"

let test_duplicate_registration () =
  let t = Ps.create () in
  match I.register_op t "dup" (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration must fail fast"

let test_registered_ops () =
  let t = Ps.create () in
  let ops = I.registered_ops t in
  List.iter
    (fun name ->
      if not (List.mem name ops) then Alcotest.failf "%s not in registered_ops" name)
    [ "pop"; "roll"; "ifelse"; "FetchI32"; "charstr"; "Put" ];
  (* constants are values, not operators *)
  if List.mem "true" ops then Alcotest.fail "true is not an operator"

let test_error_positions () =
  (* a runtime error names the line and column of the offending token *)
  match out "1 2 add\n(x) 1 add" with
  | exception V.Error ("typecheck", detail) ->
      if not (String.length detail > 0 && String.contains detail '[') then
        Alcotest.failf "no position in %S" detail;
      let has_pos =
        let re = ":2:7]" in
        let n = String.length detail and m = String.length re in
        let rec go i = i + m <= n && (String.sub detail i m = re || go (i + 1)) in
        go 0
      in
      if not has_pos then Alcotest.failf "expected line 2 col 7 in %S" detail
  | _ -> Alcotest.fail "typecheck expected"


(* --- the scanner against the closure-based oracle ------------------------ *)

module Scan = Ldb_pscript.Scan

let float_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let token_equal (a : Scan.token) (b : Scan.token) =
  match (a, b) with
  | TNum { v = Int x; _ }, TNum { v = Int y; _ } -> x = y
  | TNum { v = Real x; _ }, TNum { v = Real y; _ } -> float_equal x y
  | TNum _, _ | _, TNum _ -> false
  | _ -> a = b

let show_token = function
  | Scan.TNum v -> V.type_name v ^ " " ^ V.to_text v
  | TStr s -> Printf.sprintf "string %S" s
  | TName (n, lit) -> Printf.sprintf "%s %S" (if lit then "literal" else "name") n
  | TProcStart -> "{"
  | TProcEnd -> "}"
  | TEof -> "eof"

(** A scan to the end: every token with its position, then how it ended
    (end of input or the error, each with the recorded position). *)
type scan_result = { toks : (Scan.token * (int * int)) list; ending : string }

let scan_all next pos =
  let rec go acc =
    let at () = let l, c = pos () in Printf.sprintf "@%d:%d" l c in
    match next () with
    | Scan.TEof -> { toks = List.rev acc; ending = "eof " ^ at () }
    | t -> go ((t, pos ()) :: acc)
    | exception V.Error (e, d) -> { toks = List.rev acc; ending = Printf.sprintf "%s: %s %s" e d (at ()) }
  in
  go []

let oracle_scan text =
  let f = Oldscan.file_of_string "t" text in
  scan_all (fun () -> Oldscan.token f) (fun () -> Oldscan.file_token_pos f)

let file_scan (f : V.file) = scan_all (fun () -> Scan.token f) (fun () -> V.file_token_pos f)

(** A stream file handing out [text] in chunks whose sizes come from
    [sizes] (cycled; every chunk is non-empty). *)
let chunked_file text sizes =
  let pos = ref 0 and k = ref 0 in
  V.file_of_stream "t" (fun () ->
      if !pos >= String.length text then ""
      else begin
        let n = min (max 1 sizes.(!k mod Array.length sizes)) (String.length text - !pos) in
        incr k;
        let c = String.sub text !pos n in
        pos := !pos + n;
        c
      end)

(** The first difference between two scans, if any. *)
let scan_diff (want : scan_result) (got : scan_result) : string option =
  let rec go i = function
    | (t1, p1) :: r1, (t2, p2) :: r2 ->
        if token_equal t1 t2 && p1 = p2 then go (i + 1) (r1, r2)
        else
          Some
            (Printf.sprintf "token %d: want %s @%d:%d, got %s @%d:%d" i (show_token t1) (fst p1)
               (snd p1) (show_token t2) (fst p2) (snd p2))
    | [], [] -> if want.ending = got.ending then None else Some (Printf.sprintf "ending: want %s, got %s" want.ending got.ending)
    | (t, _) :: _, [] -> Some (Printf.sprintf "token %d: want %s, got the end (%s)" i (show_token t) got.ending)
    | [], (t, _) :: _ -> Some (Printf.sprintf "token %d: want the end (%s), got %s" i want.ending (show_token t))
  in
  go 0 (want.toks, got.toks)

let rec node_equal (a : Scan.node) (b : Scan.node) =
  a.line = b.line && a.col = b.col
  &&
  match (a.it, b.it) with
  | PReal x, PReal y -> float_equal x y
  | PProc p, PProc q ->
      p.proc_id = q.proc_id && List.length p.body = List.length q.body
      && List.for_all2 node_equal p.body q.body
  | x, y -> x = y

(** The positioned tree read from [text], against the oracle's reader. *)
let tree_agrees text =
  let old =
    let f = Oldscan.file_of_string "t" text in
    match Oldscan.parse_file f with
    | nodes -> Ok nodes
    | exception V.Error (e, d) -> Error (e, d, Oldscan.file_token_pos f)
  in
  match (old, Scan.program (V.file_of_string "t" text)) with
  | Ok a, Ok b -> List.length a = List.length b && List.for_all2 node_equal a b
  | Error (e, d, pos), Error se -> (e, d, pos) = (se.error, se.detail, (se.err_line, se.err_col))
  | _ -> false

(** Every check of one text: string file, chunked stream, tree. *)
let agrees ?(sizes = [| 1; 2; 3; 5; 7; 64 |]) text =
  let want = oracle_scan text in
  match scan_diff want (file_scan (V.file_of_string "t" text)) with
  | Some d -> Error ("string file: " ^ d)
  | None -> (
      match scan_diff want (file_scan (chunked_file text sizes)) with
      | Some d -> Error ("chunked stream: " ^ d)
      | None -> if tree_agrees text then Ok () else Error "positioned tree differs")

(** Token soup: every token class, well-formed and malformed, glued with
    every kind of blank or with nothing at all. *)
let gen_soup : string QCheck.Gen.t =
  let open QCheck.Gen in
  let chars s = oneofl (List.init (String.length s) (String.get s)) in
  let word = string_size ~gen:(chars "abzXYZ&$_.<>=!?*-+#019eEnNiI@^|~:;,'\"`\011\200") (int_range 1 6) in
  let number =
    oneofl
      [ "42"; "-7"; "+5"; "0"; "007"; "-0"; "1.5"; "-.5"; "."; "1e5"; "2E-3"; "1e"; "16#ff";
        "16#FF"; "2#101"; "37#1"; "2#"; "8#9"; "0x1F"; "0b11"; "0o7"; "0u5"; "1_000"; "_1.5";
        "nan"; "inf"; "Infinity"; "NaN"; "-nan"; "1.5e300"; "99999999999999999999";
        "123456789012345678"; "1234567890123456789"; "-123456789012345678" ]
  in
  let escape =
    oneofl
      [ "\\n"; "\\t"; "\\r"; "\\b"; "\\f"; "\\("; "\\)"; "\\\\"; "\\0"; "\\12"; "\\123";
        "\\1234"; "\\8"; "\\\n"; "\\q"; "\\777"; "\\" ]
  in
  let rec body depth =
    let flat = [ (4, word); (3, escape); (1, return "\n"); (1, return " "); (1, return "%") ] in
    let pieces =
      if depth = 0 then flat else (1, map (fun b -> "(" ^ b ^ ")") (body (depth - 1))) :: flat
    in
    map (String.concat "") (list_size (int_range 0 6) (frequency pieces))
  in
  let str = map2 (fun b closed -> "(" ^ b ^ if closed then ")" else "") (body 2) (frequency [ (9, return true); (1, return false) ]) in
  let token =
    frequency
      [ (5, word); (4, number); (2, map (fun w -> "/" ^ w) word); (4, str);
        (1, oneofl [ "/"; "//x"; "<<"; ">>"; "<"; ">"; "<x"; ">x"; "["; "]"; "{"; "}"; ")" ]);
        (1, map (fun w -> "%" ^ w ^ "\n") word); (1, map (fun w -> "%" ^ w) word);
        (1, map (String.make 1) char) ]
  in
  let sep = oneofl [ " "; "\n"; "\t"; "\r"; "\012"; "\000"; ""; "\r\n"; "  " ] in
  map (String.concat "") (list_size (int_range 0 40) (map2 ( ^ ) token sep))

let arb_soup = QCheck.make ~print:(Printf.sprintf "%S") gen_soup

let prop_scanner_matches_oracle =
  QCheck.Test.make ~count:600 ~name:"scanner = oracle on token soup" arb_soup (fun text ->
      match agrees text with Ok () -> true | Error d -> QCheck.Test.fail_report d)

let prop_chunked_stream =
  QCheck.Test.make ~count:300 ~name:"random chunking reads the same tokens"
    QCheck.(pair arb_soup (array_of_size Gen.(int_range 1 5) (int_range 1 9)))
    (fun (text, sizes) ->
      match agrees ~sizes text with Ok () -> true | Error d -> QCheck.Test.fail_report d)

(** The PostScript the debugger really reads: the prelude, the
    machine-dependent code, and an emitted loader table (plain and
    LZW-compressed bodies) per target, each deferred body included. *)
let test_real_sources () =
  let expect_agree name text =
    match agrees text with Ok () -> () | Error d -> Alcotest.failf "%s: %s" name d
  in
  expect_agree "prelude" Ldb_pscript.Prelude.source;
  List.iter
    (fun arch ->
      let an = Ldb_machine.Arch.name arch in
      expect_agree ("mdep " ^ an) (Ldb_ldb.Mdep_ps.source arch);
      List.iter
        (fun compress ->
          let _, loader = Ldb_link.Driver.build ~compress ~arch [ ("fib.c", Testkit.fib_c) ] in
          let name = Printf.sprintf "loader %s%s" an (if compress then " lzw" else "") in
          expect_agree name loader;
          List.iter
            (fun ((t : Scan.token), _) ->
              match t with
              | TStr body when String.length body > 200 -> expect_agree (name ^ " body") body
              | _ -> ())
            (oracle_scan loader).toks)
        [ false; true ])
    Ldb_machine.Arch.all

(* --- word classification ------------------------------------------------- *)

let test_classify_edges () =
  List.iter
    (fun w ->
      let want = Oldscan.classify w and got = Scan.classify w in
      if not (token_equal want got) then
        Alcotest.failf "%S: want %s, got %s" w (show_token want) (show_token got))
    [ "nan"; "inf"; "Infinity"; "NaN"; "e"; "E1"; "1e5"; "-.5"; "."; "+5"; "1_000"; "_1.5";
      "0x1F"; "0b11"; "0o7"; "0u5"; "16#ff"; "37#1"; "2#"; "&elemsize"; "-"; "+"; "-0"; "007";
      "123456789012345678"; "1234567890123456789"; "-123456789012345678";
      "99999999999999999999"; "0x7fffffffffffffff"; "1.5e300"; "1e400"; "-nan"; "\0111.5";
      "infinity"; "nan.5"; "_"; "__1"; "1__0"; "8#9"; "36#zz"; "1#1"; "0#0"; "-16#ff" ]

let prop_classify =
  QCheck.Test.make ~count:2000 ~name:"fast classify = old classify"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          string_size
            ~gen:(oneofl (List.init 34 (String.get "0123456789+-._eEiInNaAfFxXoObBuU#z")))
            (int_range 1 8)))
    (fun w -> token_equal (Oldscan.classify w) (Scan.classify w))

(* --- one scan per forced unit ------------------------------------------------ *)

let test_force_scans_once () =
  let aux_c = "int aux(int x)\n{\n    return x + 1;\n}\n" in
  let s =
    Testkit.debug_session ~arch:Ldb_machine.Arch.Mips [ ("fib.c", Testkit.fib_c); ("aux.c", aux_c) ]
  in
  let interp = s.Testkit.d.Ldb_ldb.Ldb.interp in
  check Alcotest.(list string) "attach forces nothing" []
    (Ldb_ldb.Symtab.forced_units s.Testkit.tg.Ldb_ldb.Ldb.tg_symtab);
  let hits0, misses0 = I.scan_stats interp in
  (* the default lint mode deep-checks the body before it runs *)
  Ldb_ldb.Ldb.force_unit s.Testkit.d s.Testkit.tg ~file:"aux.c";
  let hits1, misses1 = I.scan_stats interp in
  check Alcotest.int "one scan of the body" (misses0 + 1) misses1;
  check Alcotest.int "checked and run from that scan" hits0 hits1

let test_tree_after_run () =
  (* running a string lowers its cached tree and drops it; asking for the
     tree again scans afresh, and gets the same tree *)
  let t = Ps.create () in
  let src = "/sq { dup mul } def 3 sq" in
  let e = match I.scan_string t ~name:"%string" src with Ok e -> e | Error _ -> assert false in
  let before = I.tree t ~name:"%string" src e in
  I.exec_scanned t ~name:"%string" (Ok e);
  check Alcotest.string "ran" "9" (V.to_text (I.pop t));
  let _, misses = I.scan_stats t in
  let after = I.tree t ~name:"%string" src e in
  check Alcotest.int "rescanned" (misses + 1) (snd (I.scan_stats t));
  if not (List.length before = List.length after && List.for_all2 node_equal before after) then
    Alcotest.fail "the fresh tree differs"

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "pscript"
    [
      ( "scanner",
        [ case "numbers" test_numbers; case "strings" test_strings;
          case "comments" test_comments; case "names" test_names ] );
      ( "operators",
        [ case "arithmetic" test_arith; case "comparison" test_compare;
          case "stack" test_stack; case "conversions" test_conversions ] );
      ( "control",
        [ case "flow" test_control; case "forall" test_forall ] );
      ( "dicts",
        [ case "basics" test_dicts; case "rebinding" test_dict_stack_rebinding ] );
      ( "objects",
        [ case "arrays" test_arrays; case "exec attribute" test_exec_attr;
          case "immutable strings" test_immutable_strings ] );
      ( "deferral",
        [ case "basic" test_deferred_execution;
          case "nested strings" test_deferred_nested_strings;
          case "token cache" test_token_cache;
          case "token cache semantics" test_token_cache_semantics ] );
      ( "prettyprint", [ case "wrapping" test_prettyprinter ] );
      ( "debug extensions",
        [ case "locations" test_locations; case "fetch/store" test_fetch_store;
          case "fetch string" test_fetch_string; case "prelude printers" test_prelude_printers;
          case "FindLocal" test_find_local; case "concatstr" test_concatstr;
          case "DeclSubst" test_declsubst;
          case "errors" test_interp_errors ] );
      ( "regressions",
        [ case "roll n=0" test_roll_zero; case "roll n<0" test_roll_negative_n;
          case "duplicate registration" test_duplicate_registration;
          case "registered ops" test_registered_ops;
          case "error positions" test_error_positions ] );
      ( "scanner oracle",
        [ QCheck_alcotest.to_alcotest prop_scanner_matches_oracle;
          QCheck_alcotest.to_alcotest prop_chunked_stream;
          case "prelude, mdep and loader tables" test_real_sources;
          case "classify edge words" test_classify_edges;
          QCheck_alcotest.to_alcotest prop_classify;
          case "one scan per forced unit" test_force_scans_once;
          case "tree after the first run" test_tree_after_run ] );
    ]
