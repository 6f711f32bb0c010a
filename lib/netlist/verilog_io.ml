(* A small hand-rolled lexer/parser for the structural subset.  The
   grammar is regular enough that a token stream plus a few recursive
   descent functions keep this dependency-free. *)

module Io = Iddq_util.Io
module Io_error = Iddq_util.Io_error

type token =
  | Ident of string
  | Punct of char (* ( ) , ; *)
  | Kw_module
  | Kw_endmodule
  | Kw_input
  | Kw_output
  | Kw_wire

exception Lex_error of int * string

let keyword = function
  | "module" -> Some Kw_module
  | "endmodule" -> Some Kw_endmodule
  | "input" -> Some Kw_input
  | "output" -> Some Kw_output
  | "wire" -> Some Kw_wire
  | _ -> None

let is_ident_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'

let is_ident_char ch =
  is_ident_start ch || (ch >= '0' && ch <= '9') || ch = '$'

(* tokens paired with their line numbers *)
let lex text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = tokens := (tok, !line) :: !tokens in
  while !i < n do
    let ch = text.[!i] in
    if ch = '\n' then begin
      incr line;
      incr i
    end
    else if ch = ' ' || ch = '\t' || ch = '\r' then incr i
    else if ch = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if ch = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if text.[!i] = '\n' then incr line;
        if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then raise (Lex_error (!line, "unterminated comment"))
    end
    else if ch = '(' || ch = ')' || ch = ',' || ch = ';' then begin
      push (Punct ch);
      incr i
    end
    else if ch = '\\' then begin
      (* escaped identifier: up to the next whitespace *)
      let start = !i + 1 in
      let j = ref start in
      while
        !j < n && text.[!j] <> ' ' && text.[!j] <> '\t' && text.[!j] <> '\n'
        && text.[!j] <> '\r'
      do
        incr j
      done;
      if !j = start then raise (Lex_error (!line, "empty escaped identifier"));
      push (Ident (String.sub text start (!j - start)));
      i := !j
    end
    else if is_ident_start ch then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      let word = String.sub text start (!i - start) in
      match keyword word with Some kw -> push kw | None -> push (Ident word)
    end
    else if ch >= '0' && ch <= '9' then begin
      (* bare numbers appear as net names in some netlists; treat a
         digit-led word as an identifier *)
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      push (Ident (String.sub text start (!i - start)))
    end
    else raise (Lex_error (!line, Printf.sprintf "unexpected character %C" ch))
  done;
  List.rev !tokens

exception Parse_error of int * string

let parse_string text =
  try
    let tokens = ref (lex text) in
    let line_of = function [] -> 0 | (_, l) :: _ -> l in
    let fail fmt =
      Format.kasprintf (fun m -> raise (Parse_error (line_of !tokens, m))) fmt
    in
    let next () =
      match !tokens with
      | [] -> fail "unexpected end of input"
      | (tok, _) :: rest ->
        tokens := rest;
        tok
    in
    let peek () = match !tokens with [] -> None | (tok, _) :: _ -> Some tok in
    let expect tok what =
      let got = next () in
      if got <> tok then fail "expected %s" what
    in
    let ident what =
      match next () with Ident s -> s | _ -> fail "expected %s" what
    in
    (* identifier list up to ';' *)
    let rec ident_list acc =
      let name = ident "a net name" in
      match next () with
      | Punct ',' -> ident_list (name :: acc)
      | Punct ';' -> List.rev (name :: acc)
      | _ -> fail "expected ',' or ';' in a declaration"
    in
    expect Kw_module "'module'";
    let module_name = ident "the module name" in
    (* port list: names only; directions come from declarations *)
    expect (Punct '(') "'('";
    let rec ports acc =
      match next () with
      | Punct ')' -> List.rev acc
      | Ident s -> begin
        match next () with
        | Punct ',' -> ports (s :: acc)
        | Punct ')' -> List.rev (s :: acc)
        | _ -> fail "expected ',' or ')' in the port list"
      end
      | _ -> fail "expected a port name"
    in
    let _port_names = ports [] in
    expect (Punct ';') "';' after the port list";
    let b = Builder.create ~name:module_name () in
    let outputs = ref [] in
    let rec body () =
      match peek () with
      | Some Kw_endmodule ->
        ignore (next ());
        ()
      | Some Kw_input ->
        ignore (next ());
        List.iter (Builder.add_input b) (ident_list []);
        body ()
      | Some Kw_output ->
        ignore (next ());
        outputs := !outputs @ ident_list [];
        body ()
      | Some Kw_wire ->
        ignore (next ());
        ignore (ident_list []);
        body ()
      | Some (Ident prim) -> begin
        ignore (next ());
        match Gate.of_string prim with
        | None -> fail "unknown primitive %S" prim
        | Some kind -> begin
          (* optional instance name *)
          (match peek () with
          | Some (Ident _) -> ignore (next ())
          | Some _ | None -> ());
          expect (Punct '(') "'(' after a primitive";
          let rec terminals acc =
            let t = ident "a terminal net" in
            match next () with
            | Punct ',' -> terminals (t :: acc)
            | Punct ')' -> List.rev (t :: acc)
            | _ -> fail "expected ',' or ')' in a terminal list"
          in
          let terms = terminals [] in
          expect (Punct ';') "';' after an instantiation";
          match terms with
          | [] -> fail "primitive with no terminals"
          | [ _ ] -> fail "primitive with no inputs"
          | out :: fanins ->
            (try Builder.add_gate b out kind fanins
             with Invalid_argument m -> fail "%s" m);
            body ()
        end
      end
      | Some (Punct ch) -> fail "unexpected %C" ch
      | Some (Kw_module) -> fail "nested modules are not supported"
      | None -> fail "missing 'endmodule'"
    in
    body ();
    List.iter (Builder.add_output b) !outputs;
    Result.map_error (fun m -> Io_error.make m) (Builder.freeze b)
  with
  | Lex_error (line, m) | Parse_error (line, m) ->
    Error (Io_error.make ~line m)

let parse_file path = Io.parse_file path parse_string

let valid_ident s =
  s <> ""
  && is_ident_start s.[0]
  && String.for_all is_ident_char s
  && keyword s = None

let emit_name s = if valid_ident s then s else "\\" ^ s ^ " "

let sanitize_module_name s =
  if valid_ident s then s
  else begin
    let cleaned =
      String.map (fun ch -> if is_ident_char ch then ch else '_') s
    in
    if cleaned <> "" && is_ident_start cleaned.[0] then cleaned
    else "m_" ^ cleaned
  end

let to_string c =
  let buf = Buffer.create 4096 in
  let name id = emit_name (Circuit.node_name c id) in
  let inputs = Circuit.inputs c in
  let outputs = Circuit.outputs c in
  let join ids = String.concat ", " (List.map name (Array.to_list ids)) in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n"
       (sanitize_module_name (Circuit.name c))
       (join (Array.append inputs outputs)));
  Buffer.add_string buf (Printf.sprintf "  input %s;\n" (join inputs));
  Buffer.add_string buf (Printf.sprintf "  output %s;\n" (join outputs));
  let internal =
    Array.init (Circuit.num_gates c) (fun g -> Circuit.node_of_gate c g)
    |> Array.to_list
    |> List.filter (fun id -> not (Circuit.is_output c id))
  in
  if internal <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n"
         (String.concat ", " (List.map name internal)));
  for id = Circuit.num_inputs c to Circuit.num_nodes c - 1 do
    let prim =
      match Circuit.gate_kind c id with
      | Gate.Buff -> "buf"
      | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Not)
        as kind ->
        String.lowercase_ascii (Gate.to_string kind)
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s g%d (%s, %s);\n" prim (Circuit.gate_of_node c id)
         (name id)
         (String.concat ", " (List.map name (Array.to_list (Circuit.fanins c id)))))
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path c = Io.write_file_atomic path (to_string c)
