# Round trips through `trace_tool convert`, which copies records without
# decoding them:
#   - gen bin -> convert text -> convert bin reproduces the generated file
#     byte for byte;
#   - an address beyond the paper geometry's capacity survives
#     text -> bin -> text.
#
#   cmake -DTRACE_TOOL=<trace_tool> -DDIR=<scratch dir> -P convert_roundtrip.cmake
file(MAKE_DIRECTORY ${DIR})
file(WRITE ${DIR}/far.trc "# gap-ns R|W addr-hex\n5 W 0xffffffffffffffc0\n")
foreach(step
    "gen;out=${DIR}/gen.trc;format=bin;accesses=5000;seed=3"
    "convert;in=${DIR}/gen.trc;out=${DIR}/gen_text.trc;format=text"
    "convert;in=${DIR}/gen_text.trc;out=${DIR}/gen_again.trc;format=bin"
    "convert;in=${DIR}/far.trc;out=${DIR}/far_bin.trc;format=bin"
    "convert;in=${DIR}/far_bin.trc;out=${DIR}/far_again.trc;format=text")
  execute_process(COMMAND ${TRACE_TOOL} ${step} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_tool ${step} exited ${rc}")
  endif()
endforeach()
foreach(pair "gen.trc;gen_again.trc" "far.trc;far_again.trc")
  list(GET pair 0 a)
  list(GET pair 1 b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${DIR}/${a}
                          ${DIR}/${b} RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "convert round trip changed ${a} (see ${DIR}/${b})")
  endif()
endforeach()
