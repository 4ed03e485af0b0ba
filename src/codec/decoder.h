// SLIM display command application ("decoding" on the console side).

#ifndef SRC_CODEC_DECODER_H_
#define SRC_CODEC_DECODER_H_

#include "src/fb/framebuffer.h"
#include "src/protocol/commands.h"

namespace slim {

// Applies one display command to a framebuffer. Returns false (leaving the framebuffer
// untouched) when the command is malformed: payload size does not match its rectangle, the
// rectangle is empty/negative, a rect's x + w or y + h exceeds INT32_MAX, or a COPY's
// source rect reads outside the framebuffer.
// Valid commands whose destination partially exits the framebuffer are clipped, matching
// the hardware's behaviour.
[[nodiscard]] bool ApplyCommand(const DisplayCommand& cmd, Framebuffer* fb);

// Validation only (used by the transport layer before queueing work on the console).
[[nodiscard]] bool ValidateCommand(const DisplayCommand& cmd);

}  // namespace slim

#endif  // SRC_CODEC_DECODER_H_
