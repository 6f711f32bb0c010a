type t = {
  mutable buf : Bytes.t;
  mutable head : int;  (* first unconsumed byte *)
  mutable tail : int;  (* one past the last valid byte *)
}

let create () = { buf = Bytes.create 256; head = 0; tail = 0 }

let length t = t.tail - t.head
let is_empty t = t.tail = t.head

(* Make room for [n] more bytes at the tail.  Compact in place when
   the consumed prefix alone frees enough; otherwise grow by doubling
   (compacting into the fresh buffer).  Either way each live byte
   moves at most once per call, and calls that move bytes at least
   double the free tail room — O(1) amortized per appended byte. *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.tail + n > cap then begin
    let len = length t in
    if len + n <= cap / 2 then begin
      Bytes.blit t.buf t.head t.buf 0 len;
      t.head <- 0;
      t.tail <- len
    end
    else begin
      let cap' = ref (max 16 (2 * cap)) in
      while len + n > !cap' do
        cap' := 2 * !cap'
      done;
      let b = Bytes.create !cap' in
      Bytes.blit t.buf t.head b 0 len;
      t.buf <- b;
      t.head <- 0;
      t.tail <- len
    end
  end

let append_sub t b off n =
  if off < 0 || n < 0 || off + n > Bytes.length b then
    invalid_arg "Netbuf.append_sub";
  if n > 0 then begin
    reserve t n;
    Bytes.blit b off t.buf t.tail n;
    t.tail <- t.tail + n
  end

let append_string t s =
  let n = String.length s in
  if n > 0 then begin
    reserve t n;
    Bytes.blit_string s 0 t.buf t.tail n;
    t.tail <- t.tail + n
  end

let get t i =
  if i < 0 || i >= length t then invalid_arg "Netbuf.get";
  Bytes.get t.buf (t.head + i)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then invalid_arg "Netbuf.sub";
  Bytes.sub_string t.buf (t.head + pos) len

let consume t n =
  if n < 0 || n > length t then invalid_arg "Netbuf.consume";
  t.head <- t.head + n;
  if t.head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end

let peek t = (t.buf, t.head, length t)
