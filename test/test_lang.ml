(* Tests for wn.lang: lexer, parser and semantic analysis. *)

open Wn_lang

(* ---------------- Lexer ---------------- *)

let toks src = List.map (fun l -> l.Lexer.tok) (Lexer.tokenize src)

let test_lexer_tokens () =
  Alcotest.(check bool) "symbols" true
    (toks "+ += - -= * & | ^ ~ << >> == != < <= > >= = ; , # ( ) { } [ ]"
    = Lexer.
        [
          PLUS; PLUS_ASSIGN; MINUS; MINUS_ASSIGN; STAR; AMP; PIPE; CARET;
          TILDE; SHL; SHR; EQ; NE; LT; LE; GT; GE; ASSIGN; SEMI; COMMA; HASH;
          LPAREN; RPAREN; LBRACE; RBRACE; LBRACKET; RBRACKET; EOF;
        ]);
  Alcotest.(check bool) "keywords and idents" true
    (toks "kernel for if else anytime commit uint16 int32 foo x1"
    = Lexer.
        [
          KERNEL; FOR; IF; ELSE; ANYTIME; COMMIT; TYPE Ast.U16; TYPE Ast.I32;
          IDENT "foo"; IDENT "x1"; EOF;
        ]);
  Alcotest.(check bool) "numbers" true
    (toks "0 42 65535" = Lexer.[ INT 0; INT 42; INT 65535; EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "line comment" true (toks "1 // two\n3" = Lexer.[ INT 1; INT 3; EOF ]);
  Alcotest.(check bool) "block comment" true
    (toks "1 /* 2\n2 */ 3" = Lexer.[ INT 1; INT 3; EOF ])

let test_lexer_errors () =
  (match Lexer.tokenize "a $ b" with
  | exception Lexer.Error msg ->
      if not (String.length msg > 0) then Alcotest.fail "empty message"
  | _ -> Alcotest.fail "illegal character accepted");
  match Lexer.tokenize "/* unterminated" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated comment accepted"

(* ---------------- Parser ---------------- *)

let test_parse_precedence () =
  let open Ast in
  (* * binds tighter than +, + tighter than <<, << tighter than &. *)
  Alcotest.(check bool) "a + b * c" true
    (Parser.parse_expr "a + b * c"
    = Binop (Add, Var "a", Binop (Mul, Var "b", Var "c")));
  Alcotest.(check bool) "a << 2 + b parses shift of sum? no: + first" true
    (Parser.parse_expr "a << 2 & b"
    = Binop (And, Binop (Shl, Var "a", Int 2), Var "b"));
  Alcotest.(check bool) "unary minus" true
    (Parser.parse_expr "-x * y" = Binop (Mul, Neg (Var "x"), Var "y"));
  Alcotest.(check bool) "parens override" true
    (Parser.parse_expr "(a + b) * c"
    = Binop (Mul, Binop (Add, Var "a", Var "b"), Var "c"));
  Alcotest.(check bool) "indexing" true
    (Parser.parse_expr "arr[i + 1]" = Load ("arr", Binop (Add, Var "i", Int 1)))

let test_parse_sqrt () =
  let open Ast in
  Alcotest.(check bool) "sqrt call" true
    (Parser.parse_expr "sqrt(a + 1)" = Sqrt (Binop (Add, Var "a", Int 1)));
  (* 'sqrt' stays a normal identifier when not applied *)
  Alcotest.(check bool) "sqrt as a variable" true
    (Parser.parse_expr "sqrt + 1" = Binop (Add, Var "sqrt", Int 1))

let test_interp_sqrt () =
  let p =
    Parser.parse
      "uint32 a[2];
uint16 o[2];
kernel k() { o[0] = sqrt(a[0]); o[1] = sqrt(a[1]); }"
  in
  let out =
    List.assoc "o" (Interp.interpret p ~inputs:[ ("a", [| 170; 1000000 |]) ])
  in
  Alcotest.(check bool) "floor roots" true (out = [| 13; 1000 |])

let minimal_kernel body =
  Printf.sprintf "uint16 a[8];\nuint32 x[8];\nkernel k() {\n%s\n}" body

let test_parse_program () =
  let p =
    Parser.parse
      {|
#pragma asp input(a, 8)
#pragma asp output(x)
#pragma asv input(b, 4, provisioned)

uint16 a[16];
uint32 b[8];
uint32 x[16];

kernel demo() {
  int32 acc = 0;
  for (i = 0; i < 16; i += 2) {
    acc += a[i] * a[i];
    if (acc > 100) {
      x[i] = acc;
    } else {
      x[i] = 0;
    }
  }
  anytime {
    for (j = 0; j < 8; j += 1) {
      x[j] = x[j] + b[j];
    }
  } commit {
    x[0] = acc;
  }
}
|}
  in
  Alcotest.(check string) "kernel name" "demo" p.Ast.kernel_name;
  Alcotest.(check int) "three globals" 3 (List.length p.Ast.globals);
  Alcotest.(check int) "three pragmas" 3 (List.length p.Ast.pragmas);
  let prov =
    List.find (fun pr -> pr.Ast.prag_array = "b") p.Ast.pragmas
  in
  Alcotest.(check bool) "provisioned flag" true prov.Ast.prag_provisioned;
  Alcotest.(check (option int)) "bits" (Some 4) prov.Ast.prag_bits;
  match p.Ast.body with
  | [ Ast.Decl _; Ast.For f; Ast.Anytime _ ] ->
      Alcotest.(check int) "step" 2 f.Ast.step
  | _ -> Alcotest.fail "unexpected body shape"

let expect_parse_error src =
  match Parser.parse src with
  | exception Parser.Error _ -> ()
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.failf "accepted:\n%s" src

let test_parse_errors () =
  expect_parse_error (minimal_kernel "x[0] = ;");
  expect_parse_error (minimal_kernel "for (i = 0; j < 4; i += 1) { }");
  expect_parse_error (minimal_kernel "for (i = 0; i < 4; i += 0) { }");
  expect_parse_error (minimal_kernel "int16 y = 0;");
  expect_parse_error (minimal_kernel "anytime { } ");
  (* missing commit *)
  expect_parse_error "kernel k() { } trailing"

let test_pp_parse_roundtrip () =
  let src =
    minimal_kernel
      "int32 s = 0;\nfor (i = 0; i < 8; i += 1) { s += a[i] * a[i]; x[i] = s >> 2; }"
  in
  let p = Parser.parse src in
  let printed = Format.asprintf "%a" Ast.pp_program p in
  let p2 = Parser.parse printed in
  Alcotest.(check bool) "stable under pretty-printing" true
    (p.Ast.body = p2.Ast.body && p.Ast.globals = p2.Ast.globals)

(* ---------------- Sema ---------------- *)

let analyze src = Sema.analyze (Parser.parse src)

let expect_sema_error src =
  match analyze src with
  | exception Sema.Error _ -> ()
  | _ -> Alcotest.failf "sema accepted:\n%s" src

let test_sema_accepts_valid () =
  let info =
    analyze
      {|
#pragma asp input(a, 8)
#pragma asp output(x)
uint16 a[8];
uint32 x[8];
kernel k() {
  anytime {
    for (i = 0; i < 8; i += 1) { x[i] = a[i] * a[i]; }
  } commit { }
}
|}
  in
  Alcotest.(check (option int)) "asp bits" (Some 8) (Sema.asp_input info "a");
  Alcotest.(check bool) "output recorded" true
    (List.mem "x" info.Sema.asp_outputs)

let test_sema_rejections () =
  (* duplicate global *)
  expect_sema_error "uint16 a[4];\nuint16 a[4];\nkernel k() { }";
  (* pragma on unknown array *)
  expect_sema_error "#pragma asp input(zz, 8)\nuint16 a[4];\nkernel k() { }";
  (* asp without bits *)
  expect_sema_error "#pragma asp input(a)\nuint16 a[4];\nkernel k() { }";
  (* asp on non-16-bit array *)
  expect_sema_error "#pragma asp input(a, 8)\nuint32 a[4];\nkernel k() { }";
  (* asv with bad size *)
  expect_sema_error "#pragma asv input(a, 5)\nuint32 a[4];\nkernel k() { }";
  (* undeclared variable *)
  expect_sema_error "kernel k() { y = 1; }";
  (* array used without index *)
  expect_sema_error "uint16 a[4];\nkernel k() { int32 z = a; }";
  (* comparison outside condition *)
  expect_sema_error "kernel k() { int32 z = 1 < 2; }";
  (* non-constant shift *)
  expect_sema_error "kernel k() { int32 z = 0; int32 w = 1 << z; }";
  (* nested anytime *)
  expect_sema_error
    "uint16 a[4];\nkernel k() { anytime { anytime { } commit { } } commit { } }";
  (* local shadows global *)
  expect_sema_error "uint16 a[4];\nkernel k() { int32 a = 0; }";
  (* if condition must be a comparison *)
  expect_sema_error "kernel k() { int32 z = 1; if (z) { } }";
  (* constant index outside the array, written or read *)
  expect_sema_error "uint32 x[4];\nkernel k() { x[4] = 1; }";
  expect_sema_error "uint32 x[4];\nkernel k() { int32 z = x[-1]; }";
  ignore (analyze "uint32 x[4];\nkernel k() { x[3] = x[0]; }")

let test_sema_commit_sees_body_locals () =
  (* The accumulator declared in the anytime body is visible in commit. *)
  let _ =
    analyze
      {|
#pragma asv input(a, 8, provisioned)
uint32 a[8];
uint32 o[1];
kernel k() {
  anytime {
    int32 s = 0;
    for (i = 0; i < 8; i += 1) { s += a[i]; }
  } commit { o[0] = s >> 3; }
}
|}
  in
  (* ... but not outside the anytime statement. *)
  expect_sema_error
    {|
uint32 a[8];
uint32 o[1];
kernel k() {
  anytime {
    int32 s = 0;
  } commit { }
  o[0] = s;
}
|}

let () =
  Alcotest.run "wn.lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp round trip" `Quick test_pp_parse_roundtrip;
          Alcotest.test_case "sqrt" `Quick test_parse_sqrt;
          Alcotest.test_case "interp sqrt" `Quick test_interp_sqrt;
        ] );
      ( "sema",
        [
          Alcotest.test_case "accepts valid" `Quick test_sema_accepts_valid;
          Alcotest.test_case "rejections" `Quick test_sema_rejections;
          Alcotest.test_case "commit scoping" `Quick test_sema_commit_sees_body_locals;
        ] );
    ]
