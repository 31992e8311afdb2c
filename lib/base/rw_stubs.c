/* Block copies between float arrays and byte buffers.
 *
 * A floatarray is a flat run of doubles, so on a little-endian host its
 * memory is already the little-endian wire format of Rw.write_floatarray
 * and one memcpy serializes (or deserializes) a whole block.  The OCaml
 * side checks every bound before calling in and uses a portable loop on
 * big-endian hosts.  Neither stub allocates or raises ([@@noalloc]). */

#include <string.h>
#include <caml/mlvalues.h>

CAMLprim value triolet_rw_floats_to_bytes(value src, value soff, value dst,
                                          value doff, value n)
{
  if (Long_val(n) > 0)
    memcpy((char *)Bytes_val(dst) + Long_val(doff),
           (const char *)src + 8 * Long_val(soff), 8 * Long_val(n));
  return Val_unit;
}

CAMLprim value triolet_rw_bytes_to_floats(value src, value soff, value dst,
                                          value doff, value n)
{
  if (Long_val(n) > 0)
    memcpy((char *)dst + 8 * Long_val(doff),
           (const char *)Bytes_val(src) + Long_val(soff), 8 * Long_val(n));
  return Val_unit;
}
